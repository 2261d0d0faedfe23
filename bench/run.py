"""Benchmark of the intertwine package: one command, three workloads.

    python3 bench/run.py --workload {oracle,spectral,certify} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Inputs, outputs, digests, spans and result files go under
``.bench_work/`` at the repository root.

--trace 0 measures the end-to-end metrics: a single client runs the
workload's requests in a closed loop (the next request starts when the
previous one returns), in whole cycles until S seconds have passed.  Then
every output is checked against its planted answer and against the stdout
digest of the same request in earlier executions.  --trace 1 runs one cycle
of the same requests four times in-process: untraced, traced with spans,
untraced again, and with field operations counted, and reports the
per-layer metrics.  The last line of stdout is the result object.  See
README.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 5
COMMAND_TIMEOUT_S = 120
WORKLOADS = ("oracle", "spectral", "certify")
# certify pays interpreter start and import on every command, as a shell
# user does; the other two workloads run warm in this process.
SUBPROCESS_WORKLOADS = ("certify",)


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class InProcess:
    """Runs a step through ``intertwine.cli.main`` or a library call."""

    def __init__(self):
        import intertwine.cli
        import intertwine.codes
        import intertwine.serialize
        self.cli = intertwine.cli
        self.codes = intertwine.codes
        self.serialize = intertwine.serialize

    def run(self, step):
        if step.call:
            mats = []
            for path in step.files:
                with open(path, "r", encoding="utf-8") as fh:
                    mats.append(self.serialize.matrix_from_json(json.load(fh)))
            result = getattr(self.codes, step.call)(*mats)
            return 0, _library_json(step.call, result)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(step.argv)
        return rc, buf.getvalue().encode("utf-8")


def _library_json(call, result):
    if call == "dimension_formula":
        obj = {"total": result.total,
               "terms": [[list(t.irr.coeffs), list(t.lam.parts), list(t.mu.parts),
                          t.contribution] for t in result.terms]}
    else:
        obj = {"lo": result[0], "hi": result[1]}
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


class Subprocess:
    """Runs a step as ``python -m intertwine.cli`` in a fresh interpreter."""

    def __init__(self):
        self.env = _cli_env()

    def run(self, step):
        proc = subprocess.run([sys.executable, "-m", "intertwine.cli", *step.argv],
                              cwd=ROOT, env=self.env, capture_output=True,
                              timeout=COMMAND_TIMEOUT_S)
        return proc.returncode, proc.stdout


class Runner:
    """Executes units of steps and records (step, latency, rc, digest)."""

    def __init__(self, executor, tracer=None):
        self.executor = executor
        self.tracer = tracer
        self.records = []
        self.cycles = []
        self.outputs = {}
        self.errors = {}

    def run_step(self, step):
        if self.tracer is not None:
            self.tracer.request = step.id
        t0 = time.perf_counter()
        try:
            rc, out = self.executor.run(step)
        except Exception as exc:  # a crashed request is a failed request
            rc, out = -1, b""
            self.errors.setdefault(step.id, repr(exc))
        latency = time.perf_counter() - t0
        if rc == 0 and step.out_file:
            try:
                with open(step.out_file, "rb") as fh:
                    out = fh.read()
            except OSError as exc:
                rc = -1
                self.errors.setdefault(step.id, repr(exc))
        if rc == 0:
            self._hand_on(step, out)
        self.records.append((step, latency, rc, hashlib.sha256(out).hexdigest()))
        self.outputs.setdefault(step.id, out)

    def _hand_on(self, step, out):
        # Shell plumbing between pipeline commands: save stdout, split files.
        if step.stdout_to:
            with open(step.stdout_to, "wb") as fh:
                fh.write(out)
        if step.extract:
            obj = json.loads(out)
            for key, path in step.extract.items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(obj[key], separators=(",", ":")))

    def run_units(self, units, seconds=0.0):
        """Whole cycles over the units until seconds have elapsed; one cycle
        when seconds is 0.  Whole cycles give every run the same request mix."""
        t0 = time.perf_counter()
        while True:
            lo, start = len(self.records), time.perf_counter()
            for unit in units:
                # No command overwrites a file: where the filesystem discards
                # freed blocks online, truncating a large file takes tens of
                # milliseconds that are not the program's work.
                for step in unit:
                    for path in step.outputs():
                        with contextlib.suppress(FileNotFoundError):
                            os.remove(path)
                for step in unit:
                    self.run_step(step)
            end = time.perf_counter()
            self.cycles.append((lo, len(self.records), end - start))
            if end - t0 >= seconds:
                return end - t0


def evaluate(records, outputs, errors, store):
    """Mark each execution failed or correct; return (fail flags, reasons).

    An execution fails on a non-zero exit or an exception, a wrong answer,
    or stdout bytes that differ from the same request's digest recorded in
    the store (earlier runs of this seed) or earlier in this run.
    """
    from checks import check

    verdict = {}
    flags = []
    reasons = {}
    for step, _latency, rc, digest in records:
        if step.id not in verdict:
            verdict[step.id] = check(step, outputs[step.id]) if rc == 0 else None
        ref = store.setdefault(step.id, digest)
        reason = None
        if rc != 0:
            reason = f"exit {rc} {errors.get(step.id, '')}".strip()
        elif verdict[step.id] is not None:
            reason = verdict[step.id]
        elif digest != ref:
            reason = "stdout differs from another execution of the same request"
        flags.append(reason is not None)
        if reason is not None:
            reasons.setdefault(step.id, reason)
    return flags, reasons


def _load_store(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _save_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def setup(workload, seed, rundir):
    """Generate and write inputs, import the package in a fresh interpreter,
    warm up; SETUP_REPS times.  Returns (units, median seconds, input digests)."""
    import plant

    times, digests = [], []
    units = None
    env = _cli_env()
    for rep in range(SETUP_REPS):
        outdir = os.path.join(rundir, f"inputs{rep}")
        shutil.rmtree(outdir, ignore_errors=True)
        t0 = time.perf_counter()
        units = plant.generate(workload, seed, outdir)
        subprocess.run([sys.executable, "-c", "import intertwine.cli"],
                       cwd=ROOT, env=env, check=True, timeout=COMMAND_TIMEOUT_S)
        if workload in SUBPROCESS_WORKLOADS:
            warm = os.path.join(outdir, "warmup-cert.json")
            subprocess.run([sys.executable, "-m", "intertwine.cli", "construct", "2", "2", "1",
                            "--q", "3", "--out", warm],
                           cwd=ROOT, env=env, check=True, timeout=COMMAND_TIMEOUT_S)
            os.remove(warm)
        else:
            warm = InProcess()
            seen = set()
            for unit in units:
                if unit[0].kind not in seen:
                    seen.add(unit[0].kind)
                    for step in unit:
                        warm.run(step)
        times.append(time.perf_counter() - t0)
        digests.append(plant.inputs_digest(outdir, units))
        if rep:
            shutil.rmtree(os.path.join(rundir, f"inputs{rep - 1}"))
    return units, statistics.median(times), digests


def src_files():
    """(relative path, bytes) of every package source file, in path order."""
    out = []
    for dirpath, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    out.append((os.path.relpath(path, SRC), fh.read()))
    return sorted(out)


def end_to_end_metrics(runner, flags, setup_s, peak_rss_mb):
    """Throughput and latency percentiles from per-request median latencies.

    Every request runs once per cycle, and its latency is the median of its
    executions, so a stall of the shared machine during one execution does
    not move it.  p50 and p90 are taken over executions.  Throughput is one
    cycle's correct requests over the sum of their median latencies: the
    rate of a closed-loop client with those latencies.
    """
    per_request, failed = {}, set()
    for (step, latency, _rc, _digest), flag in zip(runner.records, flags):
        per_request.setdefault(step.id, []).append(latency)
        if flag:
            failed.add(step.id)
    median_of = {sid: statistics.median(v) for sid, v in per_request.items()}
    lat_ms = [median_of[rec[0].id] * 1000.0 for rec in runner.records]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
    metrics = {
        "throughput_rps": ((len(median_of) - len(failed)) / sum(median_of.values()), "req/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"samples": len(lat_ms), "above_p90": sum(1 for x in lat_ms if x > p90),
            "cycles": len(runner.cycles), "loop_s": sum(c[2] for c in runner.cycles),
            "latencies_ms": {sid: [x * 1000.0 for x in v] for sid, v in per_request.items()}}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def traced(units):
    import spans

    runner = Runner(InProcess())
    untraced_s = runner.run_units(units)
    tracer = spans.Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        traced_s = runner.run_units(units)
    finally:
        tracer.uninstall()
        runner.tracer = None
    # A second untraced pass after the traced one, so that the overhead
    # compares against the faster of a cold and a warm pass.
    untraced_s = min(untraced_s, runner.run_units(units))
    counter = spans.FieldOpCounter()
    counter.install()
    try:
        runner.run_units(units)
    finally:
        counter.uninstall()
    layers, modules = spans.layer_metrics(tracer.spans)
    layers.update({
        "fields.mul_calls": counter.counts["mul"],
        "fields.add_calls": counter.counts["add"],
        "fields.inv_calls": counter.counts["inv"],
        "trace.overhead_s": traced_s - untraced_s,
        "env.src_lines": sum(data.count(b"\n") for _path, data in src_files()),
    })
    info = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.spans),
            "module_self_s": modules}
    return runner, layers, info, tracer.spans


def _layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def design_checks(workload, layers, modules):
    """The traced run's confirmation of why each workload was chosen."""
    library = {k: v for k, v in layers.items()
               if _layer_unit(k) == "s" and not k.startswith(("cli.", "trace."))}
    largest = max(library, key=library.get)
    out = {"largest_library_self_s": largest}
    if workload == "oracle":
        out["rref_largest"] = largest == "matrices.rref_s"
    elif workload == "spectral":
        share = modules["matrices"] + modules["polys"]
        out["matrices_polys_largest"] = all(share >= v for m, v in modules.items()
                                            if m not in ("matrices", "polys"))
    else:
        out["min_distance_largest"] = largest == "codes.min_distance_s"
    if workload in ("oracle", "spectral"):
        out["no_min_distance"] = layers["codes.min_distance_calls"] == 0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "intertwine", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    rundir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    units, setup_s, digests = setup(args.workload, args.seed, rundir)
    identical = len(set(digests)) == 1

    if args.trace:
        runner, layers, extra, span_list = traced(units)
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in layers.items()}
        with open(os.path.join(rundir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for sp in span_list:
                fh.write(json.dumps(sp, separators=(",", ":")) + "\n")
        extra["design"] = design_checks(args.workload, layers, extra["module_self_s"])
    else:
        in_children = args.workload in SUBPROCESS_WORKLOADS
        runner = Runner(Subprocess() if in_children else InProcess())
        runner.run_units(units, args.seconds)
        who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # Stdout digests are compared across runs of the same code and inputs.
    h = hashlib.sha256(digests[0].encode())
    for path, data in src_files():
        h.update(path.encode() + b"\0" + data + b"\0")
    key = h.hexdigest()[:16]
    store_path = os.path.join(WORK, "digests", f"{args.workload}-{args.seed}-{key}.json")
    store = _load_store(store_path)
    flags, reasons = evaluate(runner.records, runner.outputs, runner.errors, store)
    _save_json(store_path, store)
    attempted = len(flags)
    failed = sum(flags)
    if not args.trace:
        metrics, extra = end_to_end_metrics(runner, flags, setup_s, peak_rss_mb)

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": failed / attempted if attempted else 1.0,
        "inputs_identical": identical, "failures": dict(list(reasons.items())[:5]),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        **extra,
    }
    _save_json(os.path.join(WORK, "results",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
               {"summary": summary, "metrics": metrics})
    shutil.rmtree(os.path.join(rundir, f"inputs{SETUP_REPS - 1}"), ignore_errors=True)
    summary.pop("latencies_ms", None)  # kept in the result file only
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and identical, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
