"""The full ranked output must match the committed golden fixture exactly."""

import json
import os
import pathlib
import subprocess
import sys

from make_golden import FIXTURE, golden_inputs, golden_record


def test_ranked_output_matches_golden_fixture(resources):
    expected = [
        json.loads(line)
        for line in FIXTURE.read_text(encoding="utf-8").splitlines()
    ]
    inputs = golden_inputs(resources.lexicon)
    assert [record["input"] for record in expected] == [list(words) for words in inputs]
    for words, record in zip(inputs, expected):
        assert golden_record(words, resources) == record, words


def test_ranked_output_does_not_depend_on_hashing():
    """Two interpreters with different string hash seeds, and different object
    addresses for the identity-hashed feature enums, render the same texts
    and traces as the fixture."""
    import fraseo

    path = os.pathsep.join(
        [str(pathlib.Path(fraseo.__file__).parent.parent), str(pathlib.Path(__file__).parent)]
    )
    script = (
        "import sys\n"
        "from make_golden import golden_lines\n"
        "from fraseo.pipeline import load_default_resources\n"
        "sys.stdout.buffer.write(''.join(line + '\\n' for line in"
        " golden_lines(load_default_resources())).encode('utf-8'))\n"
    )
    outputs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == FIXTURE.read_bytes()
