#!/usr/bin/env python3
"""Checks that the checked-in fuzz corpus is what gen_fuzz_corpus emits.

Runs the generator into a temporary directory, then requires:

  * every generated file to exist under the corpus root, byte for byte;
  * every checked-in file to be generated, or to be named `regression-*`
    (a minimized fuzzer find kept on purpose, see docs/FUZZING.md);
  * every harness that fuzz/CMakeLists.txt declares with
    `graphene_add_fuzzer(<name>)` to have a non-empty `<corpus>/<name>/`;
  * every directory under the corpus root to name such a harness.

A wire-format change that forgets to regenerate the corpus fails here, and
so do a seed the generator no longer emits, a harness without a corpus and
a corpus that outlived its harness. Usage:

    python3 tools/check_fuzz_corpus.py build/tools/gen_fuzz_corpus [fuzz/corpus]

Regenerate with `build/tools/gen_fuzz_corpus fuzz/corpus` after deleting the
stale seeds. Exits 1 with one line per stale, missing or unexpected file.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FUZZ_CMAKE = REPO_ROOT / "fuzz" / "CMakeLists.txt"


def files_under(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def declared_harnesses(cmake_lists: Path) -> set[str]:
    text = cmake_lists.read_text(encoding="utf-8")
    text = re.sub(r"#[^\n]*", "", text)  # a commented-out harness declares nothing
    return set(re.findall(r"^\s*graphene_add_fuzzer\(\s*(\w+)\s*\)", text, re.M))


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    generator = argv[1]
    corpus_root = Path(argv[2]) if len(argv) == 3 else REPO_ROOT / "fuzz" / "corpus"
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run([generator, tmp], check=True)
        generated = files_under(Path(tmp))
    checked_in = files_under(corpus_root)

    problems = []
    for name, data in generated.items():
        if name not in checked_in:
            problems.append(f"missing: {name} is generated but not checked in")
        elif checked_in[name] != data:
            problems.append(f"stale: {name} differs from the generator's output")
    for name in checked_in:
        if name not in generated and not os.path.basename(name).startswith("regression-"):
            problems.append(f"unexpected: {name} is neither generated nor regression-*")

    harnesses = declared_harnesses(FUZZ_CMAKE)
    corpus_dirs = {p.name for p in corpus_root.iterdir() if p.is_dir()}
    with_files = {name.split("/", 1)[0] for name in checked_in if "/" in name}
    for name in sorted(harnesses - with_files):
        problems.append(f"no corpus: harness {name} has no files under {name}/")
    for name in sorted(corpus_dirs - harnesses):
        problems.append(f"orphan: corpus directory {name}/ names no graphene_add_fuzzer "
                        "harness in fuzz/CMakeLists.txt")

    for line in problems:
        print(f"check_fuzz_corpus: {line}", file=sys.stderr)
    if problems:
        print("check_fuzz_corpus: regenerate with gen_fuzz_corpus <corpus-root>, and add "
              "or delete the corpus directory of a harness that came or went",
              file=sys.stderr)
        return 1
    print(f"check_fuzz_corpus: {len(generated)} generated seeds match; "
          f"{len(checked_in) - len(generated)} regression file(s) kept; "
          f"{len(harnesses)} harnesses, each with a corpus")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
