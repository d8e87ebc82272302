import json
import os
import subprocess
import sys
from pathlib import Path

import lexid

SRC = str(Path(lexid.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)

# Prints the first 200 instances of a seeded generator, sets as sorted lists.
_DUMP = """
import json, random
from _synth import random_instance
rng = random.Random(97)
out = []
for _ in range(200):
    languages, _, tokens = random_instance(rng)
    out.append([{c: [sorted(sw), sorted(dia)] for c, (sw, dia) in languages.items()}, tokens])
print(json.dumps(out))
"""


def _instances(hash_seed: int) -> list:
    env = {
        **os.environ,
        "PYTHONHASHSEED": str(hash_seed),
        "PYTHONPATH": os.pathsep.join((TESTS, SRC)),
    }
    result = subprocess.run(
        [sys.executable, "-c", _DUMP],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(result.stdout)


def test_random_instances_do_not_depend_on_the_hash_seed():
    assert _instances(1) == _instances(2)
