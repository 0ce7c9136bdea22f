"""Per-layer time at corpus size n and 2n, to show how each layer grows.

Usage (from the root of a checkout):

    python3 bench/growth.py [--seed 1] [--repeat 3]

Generates the bulk-lint and trace-review corpora at half and at full size
(the workload's make-up otherwise unchanged), times each layer's public call
in-process, and prints the median of --repeat runs at each size and their
ratio. A ratio near 2 is linear growth; 4 is quadratic. The target recorded
in the roadmap is a ratio of at most 2.5 for every layer.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def time_layers(mbsr, corpus, repeat: int) -> dict[str, float]:
    catalog = mbsr.load_catalog(None)
    if corpus.config_text is not None:
        config = ROOT / ".bench_work" / "growth-catalog.cfg"
        config.parent.mkdir(exist_ok=True)
        config.write_text(corpus.config_text, encoding="utf-8")
        catalog = mbsr.load_catalog(config)
    text = corpus.text()
    mapping = mbsr.load_attribute_mapping(corpus.mapping_text)
    leaf = corpus.leaf_sets()[0]
    columns = ["id", "R1", "R2", "R10", "R16", "TBX"]
    times: dict[str, list[float]] = {}

    def timed(name, fn, *args):
        started = time.perf_counter()
        result = fn(*args)
        times.setdefault(name, []).append(time.perf_counter() - started)
        return result

    for _ in range(repeat):
        timed("blockfile.parse_blocks", mbsr.blockfile.parse_blocks, text)
        model = timed("interchange.loads_corpus", mbsr.loads_corpus, text, catalog)
        findings = timed("rules.check_scope", mbsr.check_scope, model)
        timed("rules.apply_verdicts", mbsr.apply_verdicts, model, findings)
        timed("interchange.export_table", mbsr.export_table, model, None, columns)
        timed("interchange.report_setreview", mbsr.generate_report, model, None, "SetReview")
        timed("interchange.report_overview", mbsr.generate_report, model, None, "Overview")
        timed("interchange.serialize_corpus", mbsr.serialize_corpus, model)
        xmi = timed("interchange.export_xmi", mbsr.export_xmi, model)
        timed("interchange.import_xmi", mbsr.import_xmi, xmi, catalog)
        timed("interchange.export_reqif", mbsr.export_reqif, model, None, mapping)
        timed("interchange.export_dot", mbsr.export_dot, model)
        timed("trace.matrix_rows (one leaf set)", mbsr.matrix_rows, model, leaf)
    return {name: statistics.median(values) for name, values in times.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if not (SRC / "mbsr" / "__init__.py").is_file():
        sys.exit(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import mbsr
    import mbsr.blockfile
    from corpus import SHAPES, generate

    for workload in ("bulk-lint", "trace-review"):
        full = SHAPES[workload]
        half = dataclasses.replace(full, n=full.n // 2, copies=full.copies // 2,
                                   kdr=full.kdr // 2)
        small = time_layers(mbsr, generate(workload, args.seed, half), args.repeat)
        large = time_layers(mbsr, generate(workload, args.seed, full), args.repeat)
        print(f"\n{workload}: n = {half.n} and {full.n} requirements, "
              f"median of {args.repeat}")
        print(f"| layer | n={half.n} (s) | n={full.n} (s) | ratio |")
        print("| --- | --- | --- | --- |")
        for name in small:
            print(f"| `{name}` | {small[name]:.4f} | {large[name]:.4f} "
                  f"| {large[name] / small[name]:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
