"""Benchmark of the mbsr toolkit on seeded synthetic corpora.

Usage (from the root of a checkout):

    python3 bench/run.py --workload bulk-lint --seed 1 --seconds 60 --trace 0

Workloads (README.md in this directory gives their make-up):

- bulk-lint: 1,000 requirements in flat sets with a sparse Derive forest;
  rule checking and the linear exporters dominate.
- trace-review: 320 requirements in a deep binary Derive tree with element
  links, copies and three levels of sets, loaded with a catalog override;
  verdict lookup and trace closures dominate.

A run sets up five times (generates and writes the corpus, loads it
in-process, checks and applies verdicts once), checks library properties on
the loaded model, and then repeats rounds of the workload's CLI commands, run
one at a time as child processes, until `--seconds` is used up; two
in-process authoring sessions of 200 edits, each ended by a full re-check,
are spread over the first rounds. Every output is checked against the
generator's labels or a property the program documents.

With `--trace 0` the last line of standard output is one JSON object with
every end-to-end metric; with `--trace 1` it carries the per-layer metrics
of a traced run instead, and the spans are written under .bench_work/spans/.
Exit code 0 means the run finished; `correct` says whether every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Workload:
    # matrix and reports cover the whole corpus, else one leaf set
    full_review: bool


WORKLOADS = {
    "bulk-lint": Workload(full_review=False),
    "trace-review": Workload(full_review=True),
}
SETUPS = 5              # setup_s is the median of these
SESSIONS = 2            # edit sessions, each on its own set-up model
SESSION_EDITS = 200     # so that at least ten samples lie beyond the 95th percentile
MIN_CLI_ROUNDS = 3

END_TO_END_UNITS = {"setup_s": "s", "validate_s": "s", "lint_s": "s", "matrix_s": "s",
                    "report_s": "s", "export_s": "s", "edit_p50_ms": "ms",
                    "edit_p95_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER_TIMES = (
    "blockfile.parse_blocks", "catalog.default_catalog", "catalog.load_catalog",
    "interchange.loads_corpus", "trace.add_link", "parser.parse_statement",
    "parser.parse_statement_default", "rules.check_scope", "rules.apply_verdicts",
    "rules.reapply_verdicts", "interchange.export_table", "interchange.report_setreview",
    "interchange.report_overview", "trace.kdr_view", "glossary.annotate",
    "metrics.compute_slot_completeness", "interchange.serialize_corpus",
    "interchange.export_xmi", "interchange.export_reqif", "interchange.export_dot",
    "interchange.import_xmi", "trace.matrix_rows", "trace.bidirectional_trace",
    "model.set_text", "model.set_statement", "model.set_attribute", "trace.remove_link",
    "cli.main",
)
PER_LAYER_COUNTS = ("blockfile.blocks", "rules.findings", "rules.violations",
                    "rules.links_changed", "trace.add_link_rejected")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import mbsr from this checkout's src/ and nowhere else."""
    if not (SRC / "mbsr" / "__init__.py").is_file():
        fail(f"no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mbsr
    if Path(mbsr.__file__).resolve().parent != SRC / "mbsr":
        fail(f"mbsr imported from {mbsr.__file__}, not from {SRC}")


@dataclass
class Call:
    metric: str
    name: str
    args: list[str]
    scope: str | None


class Runner:
    def __init__(self, workload: str, seed: int, trace: bool):
        import mbsr
        import checks
        import corpus as corpus_mod
        from session import Session
        from spans import Tracer

        self.mbsr, self.checks, self.corpus_mod = mbsr, checks, corpus_mod
        self.Session = Session
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.dir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        # children compile the package from source on every call, whatever the
        # caller's setting, so no bytecode cache left in src/ changes the figures
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
        self.env.pop("MBSR_CONFIG", None)
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # (metric, call name) -> its times; a CLI metric is the sum over its
        # calls of each call's median
        self.samples: dict[tuple[str, str], list[float]] = {}
        self.latencies: list[float] = []
        self.child_rss_kb = 0
        self.verified: dict[tuple, list] = {}

    # --- bookkeeping ---

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    # --- round parts ---

    def setup(self):
        """Generate and write the corpus, load it, check and apply verdicts once."""
        mbsr = self.mbsr
        started = time.perf_counter()
        corpus = self.corpus_mod.generate(self.name, self.seed)
        self.corpus_path = self.dir / "corpus.mbsr"
        self.corpus_path.write_text(corpus.text(), encoding="utf-8")
        self.mapping_path = self.dir / "mapping.cfg"
        self.mapping_path.write_text(corpus.mapping_text, encoding="utf-8")
        self.config_path = None
        if corpus.config_text is not None:
            self.config_path = self.dir / "catalog.cfg"
            self.config_path.write_text(corpus.config_text, encoding="utf-8")
        catalog = mbsr.load_catalog(self.config_path)
        model = mbsr.load_corpus(self.corpus_path, catalog, clock=lambda: mbsr.FIXED_EPOCH)
        changed = mbsr.apply_verdicts(model, mbsr.check_scope(model))
        elapsed = time.perf_counter() - started

        n = len(corpus.reqs)
        problems = []
        if changed != 10 * n:
            problems.append(f"first apply_verdicts changed {changed} links, want {10 * n}")
        if len(model.links()) != len(corpus.links) + 10 * n:
            problems.append(f"{len(model.links())} links after apply_verdicts, "
                            f"want {len(corpus.links)} generated + 10 per requirement")
        self.record(problems)
        return corpus, model, elapsed

    def calls(self, corpus) -> list[Call]:
        leaf = corpus.leaf_sets()[0]
        review = None if self.spec.full_review else leaf
        out = [Call("validate_s", "validate", ["validate"], None),
               Call("lint_s", "lint", ["lint"], None),
               Call("matrix_s", "matrix", ["matrix", "--format", "csv"], review),
               Call("report_s", "overview", ["export", "--format", "md"], review),
               Call("report_s", "setreview",
                    ["export", "--format", "md", "--template", "SetReview"], review)]
        for fmt in ("xmi", "reqif", "csv", "dot", "mbsr"):
            args = ["export", "--format", fmt]
            if fmt == "reqif":
                args += ["--mapping", str(self.mapping_path)]
            out.append(Call("export_s", fmt, args, None))
        return out

    def run_cli(self, call: Call) -> tuple[float, int, str, str]:
        argv = ["--corpus", str(self.corpus_path)]
        if self.config_path is not None:
            argv += ["--config", str(self.config_path)]
        if call.scope is not None:
            argv += ["--scope", call.scope]
        argv += call.args
        spans_path = self.dir / "child-spans.json"
        spans_path.unlink(missing_ok=True)
        if self.tracer:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)] + argv
        else:
            cmd = [sys.executable, "-m", "mbsr.cli"] + argv
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err, \
                self.span(f"run.cli.{call.name}") as index:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=self.env, cwd=self.dir)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
            if self.tracer and spans_path.exists():
                self.tracer.adopt(json.loads(spans_path.read_text(encoding="utf-8")), index)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return (elapsed, proc.returncode, out_path.read_text(encoding="utf-8"),
                err_path.read_text(encoding="utf-8"))

    def check_cli(self, call: Call, code: int, stdout: str, stderr: str, corpus,
                  catalog) -> list[str]:
        checks, mbsr = self.checks, self.mbsr
        if call.name == "lint":
            return checks.lint(stdout, code, corpus)
        if code != 0:
            return [f"{call.name} exited {code}: {stderr.strip()[-300:]}"]
        if call.name == "validate":
            sets = len(corpus.sets)
            want = (f"ok: {len(corpus.elements)} element(s), {len(corpus.reqs)} requirement(s), "
                    f"{sets} set(s), {len(corpus.terms)} term(s), {len(corpus.links)} link(s)")
            return [] if want in stderr else [f"validate reported {stderr.strip()!r}"]
        if call.name == "matrix":
            return checks.matrix(stdout, corpus, call.scope)
        if call.name == "overview":
            return checks.overview(stdout, corpus, call.scope)
        if call.name == "setreview":
            return checks.set_review(stdout, corpus, call.scope)
        if call.name == "xmi":
            imported = mbsr.import_xmi(stdout, catalog)
            return checks.xmi_import(imported, corpus)
        if call.name == "reqif":
            return checks.reqif(stdout, corpus)
        if call.name == "csv":
            return checks.table_csv(stdout, corpus)
        if call.name == "dot":
            return checks.dot(stdout, corpus)
        reloaded = mbsr.loads_corpus(stdout, catalog, clock=lambda: mbsr.FIXED_EPOCH)
        return checks.canonical(stdout, mbsr.serialize_corpus(reloaded), corpus)

    def library_checks(self, corpus, model) -> None:
        """In-process properties of the loaded model."""
        mbsr, checks = self.mbsr, self.checks
        leaf = corpus.leaf_sets()[0]
        changed = mbsr.apply_verdicts(model, mbsr.check_scope(model, leaf))
        self.record([] if changed == 0 else [f"second apply_verdicts changed {changed} links"])
        self.record(checks.verdict_links(model, sorted(corpus.reqs), corpus))

        problems = []
        for req in corpus.reqs.values():
            if req.pattern is not None:
                statement, _ = mbsr.parse_statement(req.text, model.glossary, model.catalog)
                problems += checks.parsed_slots(statement, req.pattern, req.slots)
        self.record(problems)

        graph = checks.Graph(corpus.derive_edges())
        copies: dict[str, list[str]] = {}
        for req in corpus.reqs.values():
            if req.copy_of is not None:
                copies.setdefault(req.copy_of, []).append(req.id)
        problems = []
        for view in mbsr.matrix_rows(model, leaf):
            rid = view.expression_id
            problems += checks.trace_view(view, rid, corpus, graph, sorted(copies.get(rid, [])))
        self.record(problems)
        self.record(checks.kdr_rows(mbsr.kdr_view(model), corpus, graph))

    def edits(self, session, count: int) -> int:
        """Make up to count more edits of a session, closing it after its last."""
        gc.collect()
        gc.freeze()  # keep the benchmark's own objects out of the session's collections
        with self.span("run.session"):
            made = session.run(count)
            if not session.pending:
                self.record(session.final_check())
        gc.unfreeze()
        self.attempted += made
        return made

    def close(self, sessions) -> None:
        for session in sessions:
            self.failed += session.failed
            self.problems.extend(session.problems)
            self.latencies.extend(session.latencies)

    def cli_round(self, corpus, catalog) -> None:
        """Every CLI command of the workload, one child at a time. An output
        is checked in full the first time; a repeated call must then return
        the same bytes, which the CLI documents for identical inputs."""
        for call in self.calls(corpus):
            elapsed, *output = self.run_cli(call)
            self.samples.setdefault((call.metric, call.name), []).append(elapsed)
            key = (call.name, call.scope)
            problems = []
            if key not in self.verified:
                problems = self.check_cli(call, *output, corpus, catalog)
                if not problems:
                    self.verified[key] = output
            elif output != self.verified[key]:
                problems = [f"{call.name} output differs from an identical earlier call"]
            self.record(problems)

    def full_round(self) -> None:
        """Setup, library checks, one CLI round and one edit session: the
        unit of work the traced run repeats, its outputs checked in full."""
        self.verified.clear()
        with self.span("run.setup"):
            corpus, model, _ = self.setup()
        with self.span("run.library"):
            self.library_checks(corpus, model)
        self.cli_round(corpus, model.catalog)
        # the session edits corpus and model, so it comes last
        session = self.Session(model, corpus, 0, SESSION_EDITS, self.tracer)
        self.edits(session, SESSION_EDITS)
        self.close([session])

    # --- whole runs ---

    def warm_up(self) -> None:
        """Fill file caches: one untimed setup and CLI call."""
        corpus, _, _ = self.setup()
        self.run_cli(self.calls(corpus)[0])
        self.attempted = self.failed = 0
        self.problems.clear()

    def measure(self, seconds: float) -> dict:
        """Set up SETUPS times and check the library once; then repeat CLI
        rounds until the time is used up, with the edits shared out before
        the rounds so that edits and CLI calls sample the same stretch of time."""
        self.warm_up()
        started = time.perf_counter()
        prepared, setup_times = [], []
        for i in range(SETUPS):
            corpus, model, elapsed = self.setup()
            setup_times.append(elapsed)
            # keep only the last models, which the checks and sessions use, and
            # free the others before the next setup, so that the number of
            # setups does not change this process's peak RSS
            if i >= SETUPS - 1 - SESSIONS:
                prepared.append((corpus, model, elapsed))
            del corpus, model
            gc.collect()
        corpus, model, _ = prepared[0]
        self.library_checks(corpus, model)
        catalog = model.catalog
        sessions = [self.Session(m, c, plan, SESSION_EDITS, self.tracer)
                    for plan, (c, m, _) in enumerate(prepared[1:1 + SESSIONS])]
        del prepared, model

        durations: list[float] = []
        edit_time, edits_made = 0.0, 0
        while True:
            pending = sum(len(s.pending) for s in sessions)
            if pending and durations:
                # once a round has shown its length, share the edits left
                # evenly over the rounds that still fit, less one, so that the
                # last edits never force a late round
                per_edit = edit_time / edits_made if edits_made else 0.0
                remaining = seconds - (time.perf_counter() - started)
                fit = int((remaining - per_edit * pending) // max(durations))
                left = -(-pending // max(1, MIN_CLI_ROUNDS - len(durations), fit - 1))
                t0 = time.perf_counter()
                for session in sessions:
                    made = self.edits(session, left) if left else 0
                    left -= made
                    edits_made += made
                edit_time += time.perf_counter() - t0
            t0 = time.perf_counter()
            self.cli_round(corpus, catalog)
            durations.append(time.perf_counter() - t0)
            if any(s.pending for s in sessions) or len(durations) < MIN_CLI_ROUNDS:
                continue
            # stop when a typical round would no longer end in time
            if time.perf_counter() - started + statistics.median(durations) > seconds:
                break
        self.close(sessions)

        lat = self.latencies
        metrics = {"setup_s": statistics.median(setup_times)}
        for (metric, _), times in self.samples.items():
            metrics[metric] = metrics.get(metric, 0.0) + statistics.median(times)
        metrics["edit_p50_ms"] = statistics.median(lat) * 1e3
        metrics["edit_p95_ms"] = statistics.quantiles(lat, n=20)[18] * 1e3
        metrics["peak_rss_mb"] = self.child_rss_kb / 1024
        print(f"bench: {self.name} seed {self.seed}: {SETUPS} setups, {len(lat)} edits, "
              f"{len(durations)} CLI rounds of {[round(d, 2) for d in durations]} s, "
              f"{time.perf_counter() - started:.1f} s in all", file=sys.stderr)
        return {m: {"value": metrics[m], "unit": u} for m, u in END_TO_END_UNITS.items()}

    def measure_traced(self, seconds: float) -> dict:
        """One untraced full round, then the same round traced while time allows."""
        from spans import inclusive_totals, instrument, self_times

        self.warm_up()
        started = time.perf_counter()
        tracer, self.tracer = self.tracer, None
        self.full_round()
        untraced = time.perf_counter() - started
        self.tracer = tracer
        instrument(self.tracer)
        traced: list[float] = []
        while not traced or time.perf_counter() - started + max(traced) <= seconds:
            self.tracer.start_round(len(traced) + 1)
            t0 = time.perf_counter()
            self.full_round()
            traced.append(time.perf_counter() - t0)

        rounds = list(range(1, len(traced) + 1))
        totals = inclusive_totals(self.tracer.spans, rounds)
        metrics: dict[str, float] = {}
        for name in PER_LAYER_TIMES:
            metrics[f"{name}_s"] = statistics.median(totals[r][name] for r in rounds)
        metrics["cli.startup_s"] = statistics.median(
            sum(v for k, v in totals[r].items() if k.startswith("run.cli."))
            - totals[r]["cli.main"] for r in rounds)
        counts = [self.tracer.counts[r] for r in rounds]
        if any(c != counts[0] for c in counts):
            self.record(["per-round counts differ between identical traced rounds"])
        for name in PER_LAYER_COUNTS:
            metrics[name] = counts[0][name]
        overhead = statistics.median(traced) / untraced - 1

        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        stem = spans_dir / f"{self.name}-seed{self.seed}"
        self.tracer.dump(f"{stem}.json")
        summary = {"untraced_round_s": untraced, "traced_round_s": traced,
                   "overhead": overhead,
                   "self_s": dict(self_times(self.tracer.spans).most_common())}
        Path(f"{stem}-summary.json").write_text(json.dumps(summary, indent=1))
        print(f"tracing overhead: {overhead:+.1%} ({statistics.median(traced):.2f} s traced "
              f"round vs {untraced:.2f} s untraced); spans in {stem}.json")
        return {m: {"value": v, "unit": "count" if m in PER_LAYER_COUNTS else "s"}
                for m, v in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    runner = Runner(args.workload, args.seed, bool(args.trace))
    try:
        if args.trace:
            metrics = runner.measure_traced(args.seconds)
        else:
            metrics = runner.measure(args.seconds)
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
