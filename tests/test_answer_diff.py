from answer_diff import moved, report

BASE = {
    ("golden", 0): {
        ("dibujar", "animales"): ["Yo dibujo animales.", "Yo dibujo los animales."],
        ("perro", "gato"): None,
        ("lobo", "comer", "niñas"): ["El lobo come niñas."],
        ("ir", "teatro"): ["Yo voy al teatro."],
    },
    ("golden", 3): {("lobo", "comer", "niñas"): ["El lobo come niñas."]},
}
HEAD = {
    ("golden", 0): {
        ("dibujar", "animales"): ["Yo dibujo animales.", "Dibujo animales."],
        ("perro", "gato"): ["El perro gatea."],
        ("lobo", "comer", "niñas"): ["El lobo come niñas.", "El lobo come las niñas."],
        ("ir", "teatro"): None,
    },
    ("golden", 3): {("lobo", "comer", "niñas"): ["El lobo come niñas."]},
}


def test_moved_names_the_first_candidate_that_differs():
    assert moved(BASE, HEAD) == {
        ("golden", 0): [
            (("dibujar", "animales"), 2, "Yo dibujo los animales.", "Dibujo animales."),
            (("perro", "gato"), 1, "ECHO", "El perro gatea."),
            (("lobo", "comer", "niñas"), 2, None, "El lobo come las niñas."),
            (("ir", "teatro"), 1, "Yo voy al teatro.", "ECHO"),
        ],
        ("golden", 3): [],
    }
    assert moved(BASE, BASE) == {key: [] for key in BASE}


def test_report_counts_each_input_set_and_lists_what_moved():
    assert report(BASE, HEAD) == [
        "golden, uncapped: 4 of 4 lists moved",
        "  dibujar animales: #2 Yo dibujo los animales. → Dibujo animales.",
        "  perro gato: #1 ECHO → El perro gatea.",
        "  lobo comer niñas: #2 None → El lobo come las niñas.",
        "  ir teatro: #1 Yo voy al teatro. → ECHO",
        "golden, cap 3: 0 of 1 lists moved",
    ]
