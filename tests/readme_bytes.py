"""Run every `selberg-gas` line of the README against two source trees and
print where their stdout, stderr or exit status differ.

    python tests/readme_bytes.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `selberg_gas` package,
such as the `src` of two checkouts.  The lines are read from the README of
the checkout this script sits in, and each runs as
`python -m selberg_gas.cli ...` with the tree first on PYTHONPATH, and
the raw bytes are compared.  Exits 0 when every line prints the same
bytes, 1 otherwise.
Not a pytest module: it takes about a minute, most of it `validate`.
"""

import difflib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_lines() -> list:
    blocks = re.findall(r"```[a-z]*\n(.*?)```", README.read_text(), re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("selberg-gas ")]


def run(src: str, argv: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "selberg_gas.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.stdout, proc.stderr, proc.returncode


def main(old_src: str, new_src: str) -> int:
    lines = readme_lines()
    differing = 0
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        old, new = run(old_src, argv), run(new_src, argv)
        if old == new:
            print(f"same     {line}")
            continue
        differing += 1
        print(f"DIFFERS  {line}")
        for name, a, b in zip(("stdout", "stderr"), old, new):
            sys.stdout.writelines(difflib.unified_diff(
                a.splitlines(True), b.splitlines(True), f"old {name}", f"new {name}"))
        if old[2] != new[2]:
            print(f"exit status {old[2]} -> {new[2]}")
    print(f"{differing} of {len(lines)} lines differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
