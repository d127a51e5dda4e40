"""The plqo benchmark: one client, one process, no threads, closed loop.

    python3 perfbench/run.py --workload valid-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs the workload's query list through the public API, over and over,
for ``--seconds`` of query time.  Every verdict is
checked outside the timed region: its kind against the workload's
expectation and its artifact (proof or countermodel) by the program's own
independent checker.  With ``--trace 0`` it reports the end-to-end
metrics, times in seconds at reference speed (see Speed); with
``--trace 1`` it alternates untraced and traced passes and reports
per-layer calls, self time and counts.  Human-readable rows come
first; the last line of standard output is one JSON object.  Results,
and the spans of a traced run, are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
SHOWN_FAILURES = 20
# The reference kernel's time at reference speed: about its median on the
# 2-vCPU Intel Xeon (2.1 GHz, Python 3.11.7) this was written on.
REF_KERNEL_S = 0.0035
SAMPLE_EVERY_S = 0.25
NEAR_S = 0.5


def kernel():
    """A fixed exact computation that does not touch plqo: eliminating a
    12x12 rational matrix, the kind of Fraction work the decider does."""
    n = 12
    m = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]


def time_kernel():
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def at_reference_speed(seconds, kernel_s):
    return seconds * REF_KERNEL_S / statistics.median(kernel_s)


class Speed:
    """The machine's speed while queries run, sampled by a timer signal that
    runs the reference kernel every SAMPLE_EVERY_S, also inside a query.

    The shared host this was written on drifts by up to half its speed over
    minutes to hours: raw wall times of one workload spread by 12-30%
    (quartile distance over median) between runs minutes apart, and their
    median moved by 38% within an hour.  So every reported time is a query's
    own time (wall time minus the kernel samples inside it) scaled by
    REF_KERNEL_S over the median kernel time during and around it: seconds
    at reference speed.  Raw seconds are printed beside them."""

    def __init__(self):
        self.at = []  # when each kernel sample ended
        self.kernel_s = []
        self.intervals = []  # (start, end) of each timed query, in order

    def _sample(self, *_):
        k = time_kernel()
        self.at.append(perf_counter())
        self.kernel_s.append(k)

    def __enter__(self):
        for _ in range(3):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self._sample()

    def scaled(self, passes):
        """(raw, scaled): each query's own seconds, and the same at
        reference speed, in the shape of ``passes``."""
        intervals = iter(self.intervals)
        raw, scaled = [], []
        for times in passes:
            raw.append([])
            scaled.append([])
            for _ in times:
                start, end = next(intervals)
                inside = self.kernel_s[bisect_left(self.at, start):bisect_right(self.at, end)]
                near = self.kernel_s[bisect_left(self.at, start - NEAR_S):
                                     bisect_right(self.at, end + NEAR_S)]
                own = end - start - sum(inside)
                raw[-1].append(own)
                scaled[-1].append(at_reference_speed(own, near or self.kernel_s))
        return raw, scaled


def refuse(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import plqo from this checkout's sources, never from elsewhere."""
    if sys.flags.optimize:
        # Under -O the proof checker and the witness re-checks are asserts
        # and vanish, so the numbers would measure a program without checks.
        refuse("refusing to run under python -O or PYTHONOPTIMIZE")
    if not (SRC / "plqo" / "__init__.py").is_file():
        refuse(f"no plqo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plqo
    import plqo.cli

    if Path(plqo.__file__).resolve().parent != SRC / "plqo":
        refuse(f"imported plqo from {plqo.__file__}, not from {SRC}")
    return plqo


def setup_probe(args):
    """Set-up of a fresh process, importing plqo and building the workload,
    at reference speed (the kernel is timed right after it)."""
    t0 = perf_counter()
    import_program()
    import workloads

    workloads.build(args.workload, args.seed)
    setup = perf_counter() - t0
    print(repr(at_reference_speed(setup, [time_kernel() for _ in range(9)])))


def measure_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# -- queries and their checks -------------------------------------------------


def execute(plqo, q):
    """One timed query: parse the text and decide it through the public API.

    Functions are looked up on their modules at call time, so the tracer's
    wrappers see every call."""
    if q.api == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = plqo.cli.run(["check", q.texts[0]])
        return code, out.getvalue()
    formulas = [plqo.parser.parse_plqo(t) for t in q.texts]
    if q.api == "valid":
        return plqo.decide.check_valid(formulas[0])
    if q.api == "sat":
        return plqo.decide.check_sat(formulas[0])
    return plqo.decide.check_entail(formulas[:-1], formulas[-1])


def kind_of(plqo, out):
    if isinstance(out, tuple):
        return {0: "valid", 1: "invalid"}.get(out[0], f"exit-{out[0]}")
    d = plqo.decide
    for cls, kind in ((d.Valid, "valid"), (d.Invalid, "invalid"),
                      (d.Satisfiable, "sat"), (d.Unsatisfiable, "unsat")):
        if isinstance(out, cls):
            return kind
    return type(out).__name__


def fingerprint(out):
    """What must repeat exactly from pass to pass for one query."""
    if isinstance(out, tuple):
        return out
    if hasattr(out, "proof"):
        return out.proof
    return out.spec, out.assignment.numeric


class Checker:
    """Checks each verdict outside the timed region.

    The first answer to a query gets the full check: its kind against the
    expected kind, its proof by ``check_proof`` and its countermodel by
    exact ``satisfies``.  Later answers must equal the first one."""

    def __init__(self, plqo, expected):
        self.plqo = plqo
        self.expected = expected
        self.first = {}
        self.kinds = {}

    def check(self, q, out, error):
        if error is not None:
            self.first.setdefault(q.id, None)
            return f"raised {type(error).__name__}: {error}"
        if q.id in self.first:
            ref = self.first[q.id]
            if ref is None:
                return "its first answer failed the check"
            if fingerprint(out) != ref:
                return "answer differs from the first pass"
            return None
        try:
            problem = self._first_check(q, out)
        except Exception as e:  # a crashing check is a failed check
            problem = f"check raised {type(e).__name__}: {e}"
        self.first[q.id] = None if problem else fingerprint(out)
        return problem

    def _first_check(self, q, out):
        plqo = self.plqo
        kind = kind_of(plqo, out)
        self.kinds[q.id] = kind
        want = q.expect or self.expected.get(q.id)
        if want is None:
            return "no expected verdict recorded"
        if kind != want:
            return f"verdict {kind}, expected {want}"
        formulas = [plqo.parser.parse_plqo(t) for t in q.texts]
        target = formulas[-1]
        if q.api == "entail" and len(formulas) > 1:
            target = plqo.PImpl(plqo.syntax.pconj_all(formulas[:-1]), target)
        if q.api == "cli":
            return self._check_cli(out, target)
        if kind in ("valid", "unsat"):
            goal = target if kind == "valid" else plqo.PNeg(target)
            return self._check_proof(out.proof, goal)
        goal = plqo.PNeg(target) if kind == "invalid" else target
        return self._check_model(out.structure, out.assignment, out.spec, goal, q.dim)

    def _check_proof(self, proof, goal):
        if proof.conclusion() != goal:
            return "proof concludes another formula"
        if self.plqo.check_proof(proof) is not True:
            return "check_proof rejected the proof"
        return None

    def _check_model(self, structure, assignment, spec, goal, dim):
        want_dim = (1 << len(spec.symbols)) + 2 * len(spec.nc)
        if structure.dim != want_dim:
            return f"dimension {structure.dim}, spec gives {want_dim}"
        if dim is not None and (structure.dim != dim or not spec.nc):
            return f"countermodel of dimension {structure.dim} with {len(spec.nc)} pairs"
        if not self.plqo.satisfies(structure, assignment, goal):
            return "model does not satisfy the formula it witnesses"
        return None

    def _check_cli(self, out, phi):
        plqo = self.plqo
        code, text = out
        if code == 0:
            verdict = plqo.decide.check_valid(phi)
            if text != f"VALID\n{verdict.proof.render()}\n":
                return "CLI output differs from the library's proof"
            return self._check_proof(verdict.proof, phi)
        head, _, body = text.partition("\n")
        if head != "INVALID":
            return f"CLI printed {head!r}"
        doc = json.loads(body)
        spec = plqo.genmodel.spec_from_json(doc["generic"])
        numeric = {int(k[1:]): v for k, v in doc.get("assignment", {}).items()}
        structure = plqo.build_generic(spec)
        return self._check_model(structure, plqo.Assignment(numeric), spec, plqo.PNeg(phi), None)


# -- the timed loop -----------------------------------------------------------


def run_pass(plqo, queries, checker, failures, speed=None, tracer=None,
             budget=None, estimate=None):
    """Decide the queries in order, once each; returns per-query seconds,
    checks excluded.  With a ``budget``, stops before the first query whose
    ``estimate`` would take the pass past it."""
    times = []
    for i, q in enumerate(queries):
        if budget is not None and sum(times) + estimate[i] > budget:
            break
        out = error = None
        if tracer is not None:
            tracer.begin(i)
        t0 = perf_counter()
        try:
            out = execute(plqo, q)
        except Exception as e:  # every failure is counted, and the run goes on
            error = e
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.end()
        if speed is not None:
            speed.intervals.append((t0, t0 + dt))
        times.append(dt)
        problem = checker.check(q, out, error)
        if problem is not None:
            failures.append((q.id, problem))
    return times


def tail(values):
    """The highest percentile with at least ten values beyond it, as
    (value, percentile); the maximum when there are ten values or fewer."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    return v[n - 11], 100.0 * (n - 10) / n


def per_query(queries, passes):
    """Each query's median time over the passes that reached it, by id."""
    return {
        q.id: statistics.median(p[i] for p in passes if i < len(p))
        for i, q in enumerate(queries)
    }


def end_to_end(rows, raw_rows, passes, setup_samples, speed, lines):
    """Times in seconds at reference speed (see Speed), raw seconds beside."""
    samples = sum(map(len, passes))
    t_value, t_pct = tail(rows.values())
    raw = list(raw_rows.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"speed {len(speed.kernel_s)} kernel samples, median "
                 f"{statistics.median(speed.kernel_s):.4g} s, reference {REF_KERNEL_S} s")
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes"),
        "pass_s": (sum(rows.values()), "s",
                   f"raw {sum(raw):.4g} s; sum of each query's median "
                   f"over {samples} timed queries"),
        "query_p50_s": (statistics.median(rows.values()), "s",
                        f"raw {statistics.median(raw):.4g} s; median over {len(rows)} queries"),
        "query_tail_s": (t_value, "s",
                         f"raw {tail(raw)[0]:.4g} s; p{t_pct:.1f} over {len(rows)} "
                         f"queries, {10 if t_pct < 100 else 0} beyond it"),
        "peak_rss_mb": (rss_mb, "MB", "peak resident set of this process"),
    }
    for name, (value, unit, note) in metrics.items():
        lines.append(f"metric {name} {value:.6g} {unit} ({note})")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


def per_layer(passes, traced, lines):
    """Per-layer metrics: counts from the first traced pass, times as the
    median over traced passes."""
    import layers

    summaries = [layers.summarize(spans) for spans, _ in traced]
    traced_s = [sum(times) for _, times in traced]
    first = summaries[0]
    for other in summaries[1:]:
        for name, row in other.items():
            for k, v in row.items():
                if k != "self_s" and v != first[name][k]:
                    lines.append(f"warning {name}.{k} differs between traced passes")
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, row in first.items():
        put(f"{name}.calls", row["calls"], "count")
        put(f"{name}.self_s", statistics.median(s[name]["self_s"] for s in summaries), "s")
        for k, v in row.items():
            if k not in ("calls", "self_s", "feasible"):
                put(f"{name}.{k}", v, "count")
    feas = first["lra.feasible"]
    put("lra.feasible.feasible_ratio", feas["feasible"] / feas["calls"] if feas["calls"] else 0.0, "1")
    for module in layers.MODULES:
        shares = [
            sum(row["self_s"] for name, row in s.items() if name.startswith(module + "."))
            / total
            for s, total in zip(summaries, traced_s)
        ]
        put(f"share.{module}", statistics.median(shares), "1")
    untraced_s = statistics.median(sum(p) for p in passes)
    put("trace.pass_s", statistics.median(traced_s), "s")
    put("trace.overhead_ratio", statistics.median(traced_s) / untraced_s, "1")
    for name, m in metrics.items():
        lines.append(f"layer {name} {m['value']:.6g} {m['unit']}")
    return metrics


def run_all(args, names):
    """Every workload in turn, each in a fresh process.  The last line sums
    the counts and names each metric by its workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            refuse(f"{name} exited with {done.returncode}")
        *lines, last = done.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines))
        result = json.loads(last)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            total["metrics"][f"{name}/{k}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    plqo = import_program()
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        refuse(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    setup_samples = measure_setup(args) if args.trace == 0 else []
    queries = workloads.build(args.workload, args.seed)
    expected = json.loads((HERE / "expected_mix.json").read_text())["kinds"]
    checker = Checker(plqo, expected)
    failures = []

    # Closed loop over the query list for --seconds of query time.  Only the
    # first pass must be whole; the run ends at the first query that the
    # first pass says would not fit.  A traced run alternates whole untraced
    # and traced passes, so the overhead ratio compares passes from one
    # process, and starts a pair only if it should end in time.
    passes, traced = [], []
    measured = 0.0
    if args.trace:
        import layers

        tracer = layers.Tracer()
        while True:
            passes.append(run_pass(plqo, queries, checker, failures))
            tracer.spans.clear()
            times = run_pass(plqo, queries, checker, failures, tracer=tracer)
            traced.append((list(tracer.spans), times))
            pair = sum(passes[-1]) + sum(times)
            measured += pair
            if measured + pair > args.seconds:
                break
    else:
        with Speed() as speed:
            passes.append(run_pass(plqo, queries, checker, failures, speed))
            measured = sum(passes[0])
            while measured < args.seconds:
                times = run_pass(plqo, queries, checker, failures, speed,
                                 budget=args.seconds - measured, estimate=passes[0])
                if times:
                    passes.append(times)
                    measured += sum(times)
                if len(times) < len(queries):
                    break
        raw_passes, passes = speed.scaled(passes)

    attempted = sum(map(len, passes)) + sum(len(t) for _, t in traced)
    lines = []
    rows = per_query(queries, passes)
    for q in sorted(queries, key=lambda q: q.id):
        lines.append(f"query {q.id} {checker.kinds.get(q.id, '-')} {rows[q.id]:.6g} s")
    if args.trace:
        metrics = per_layer(passes, traced, lines)
    else:
        metrics = end_to_end(rows, per_query(queries, raw_passes), passes,
                             setup_samples, speed, lines)
    lines.append(
        f"metric fail_ratio {len(failures) / attempted:.6g} 1 "
        f"({len(failures)} failed of {attempted} attempted)"
    )
    for qid, problem in failures[:SHOWN_FAILURES]:
        lines.append(f"FAIL {qid}: {problem}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "traced_passes": len(traced),
        "queries": {
            q.id: {"texts": q.texts, "kind": checker.kinds.get(q.id), "median_s": rows[q.id]}
            for q in queries
        },
        "metrics": metrics, "failures": failures,
    }
    if args.trace:
        record["spans"] = [[s.to_json() for s in spans] for spans, _ in traced]
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
