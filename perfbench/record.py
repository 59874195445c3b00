"""Record the reference outputs the benchmark checks against.

Run once on the commit whose outputs are the reference::

    python3 perfbench/record.py

Writes ``perfbench/references/paper.json`` (each experiment's
``format()`` text at the benchmark's arguments) and
``perfbench/references/catalog_seed0.json`` (the catalog campaign's
verdict table at seed 0).
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import REFERENCES, WORKLOADS, verdict_table  # noqa: E402


def main() -> int:
    REFERENCES.mkdir(exist_ok=True)
    span = lambda _: nullcontext()  # noqa: E731

    paper = WORKLOADS["paper"]()
    output = paper.run(paper.build(0), span)
    texts = {name: text for name, (_, text) in output.items()}
    (REFERENCES / "paper.json").write_text(json.dumps(texts, indent=1) + "\n")

    catalog = WORKLOADS["catalog"]()
    state = catalog.build(0)
    try:
        table = verdict_table(catalog.run(state, span)[0]["solved"])
    finally:
        catalog.release(state)
    lines = [f"{json.dumps(key)}: {json.dumps(table[key])}"
             for key in sorted(table)]
    (REFERENCES / "catalog_seed0.json").write_text(
        "{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(texts)} experiments and {len(table)} catalog "
          f"verdicts under {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
