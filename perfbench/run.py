"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload skew_join --seed 1 --seconds 16 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics; either way the last line of stdout is one JSON
object
``{"correct", "attempted", "failed", "metrics"}``. Everything it writes
(inputs, outputs, Ray's session dir, span files) goes under
``.bench_work/`` in the repository root.

The run owns its Ray session: ``ray stop --force`` before and after, a
fixed logical CPU count whatever the host's core count, and the engine's
package put on the workers' import path through ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

# the checkout this file sits in, wherever the command is started from
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

NUM_CPUS = 2  # logical CPUs of the session, fixed whatever nproc says
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# idle worker processes Ray keeps started. At its default (= NUM_CPUS) an
# actor pool's new actor often waits for a fresh worker process to start
# and import, which made single flagship executions take 20+ s instead
# of 3 s on a 4-vCPU VM; a larger warm pool keeps that scheduler cost out
# of the numbers
IDLE_WORKERS = 5
MIN_EXECUTIONS = 3
RUN_BUDGET_S = 165.0  # stop starting executions past this (exit < 180 s)
TIMEOUT_MIN_S, TIMEOUT_WARMUP_MULT = 30.0, 5.0

END_TO_END_UNITS = {
    "wall_s": "s", "rows_per_s": "1/s", "success_ratio": "ratio",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class ExecutionTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ExecutionTimeout()


def call_with_timeout(fn, seconds: float):
    """Run ``fn()`` in this thread; raise ExecutionTimeout after
    ``seconds`` (SIGALRM — Ray's blocking waits poll for signals)."""
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.01))
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def ray_stop() -> None:
    exe = shutil.which("ray")
    cmd = [exe, "stop", "--force"] if exe else [
        sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"]
    subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=60, check=False)


def ray_temp_dir() -> str:
    """Ray's session dir under the checkout, unless the path is too long
    for the AF_UNIX sockets Ray puts in it (107 bytes, about 65 of which
    Ray appends); then Ray's default temp dir."""
    path = os.path.join(WORK, "ray")
    if len(path.encode()) <= 40:
        return path
    log(f"note: {path} too long for Ray's socket paths; using Ray's default temp dir")
    return ""


class Session:
    """One Ray session with the benchmark's fixed resources."""

    def __init__(self, trace_dir: str | None = None):
        import ray

        from perfbench import trace

        env = os.environ
        paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join([ROOT] + [p for p in paths if p != ROOT])
        env["RAY_USAGE_STATS_ENABLED"] = "0"
        kw = {}
        tmp = ray_temp_dir()
        if tmp:
            os.makedirs(tmp, exist_ok=True)
            env["RAY_TMPDIR"] = tmp
            kw["_temp_dir"] = tmp
        if trace_dir:
            env[trace.TRACE_DIR_ENV] = trace_dir
            kw["runtime_env"] = {
                "worker_process_setup_hook": "perfbench.layers.install_worker"}
        else:
            env.pop(trace.TRACE_DIR_ENV, None)
        ray.init(address="local", num_cpus=NUM_CPUS,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR",
                 _system_config={"num_workers_soft_limit": IDLE_WORKERS}, **kw)
        from ray.data import DataContext

        logging.getLogger("ray.data").setLevel(logging.WARNING)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def close(self) -> None:
        import ray

        ray.shutdown()


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def _proc_status(pid: int) -> dict:
    out = {}
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                k, _, v = line.partition(":")
                out[k] = v.strip()
    except OSError:
        pass
    return out


def _argv(pid: int) -> list[bytes]:
    """A process's command line; a Ray worker's is ``ray::<task or
    actor>`` once it has set its title."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().split(b"\0")
    except OSError:
        return [b""]


def _is_ray_worker(pid: int) -> bool:
    argv = _argv(pid)
    return (argv[0].startswith(b"ray::")
            or any(a.endswith(b"default_worker.py") for a in argv[:2]))


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _session_processes() -> list[int]:
    """This driver and the Ray worker processes that descend from it."""
    me = os.getpid()
    parent = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            ppid = _proc_status(int(d)).get("PPid")
            if ppid:
                parent[int(d)] = int(ppid)

    def descends(pid: int) -> bool:
        seen = set()
        while pid in parent and pid not in seen:
            seen.add(pid)
            pid = parent[pid]
            if pid == me:
                return True
        return False

    return [me] + [p for p in parent if descends(p) and _is_ray_worker(p)]


# titles of workers that run no task of the execution: idle pool workers
# and Ray Data's helper actors (a worker still starting has no ``ray::``
# title yet)
_NOT_BUSY = (b"ray::IDLE", b"ray::_StatsActor", b"ray::AutoscalingRequester",
             b"ray::ActorLocationTracker")


class MemoryProbe:
    """Peak resident memory of one timed execution, from /proc with no
    sampler thread.

    ``start()`` resets VmHWM of the driver and every Ray worker of the
    session (``/proc/<pid>/clear_refs``) and notes their CPU time.
    ``sample()`` runs just before a Dataset execution lets go of workers
    (each actor-pool actor's release and the executor's shutdown) and
    reads VmHWM of the driver, of the workers busy at that moment and of
    the workers whose CPU time grew by ``ACTIVE_CPU_S`` since ``start()``
    (task workers back in the idle pool). Idle workers that did not work,
    among them those Ray starts during the execution to refill its pool,
    and Ray Data's helper actors stay out. ``peak_mb`` is the sum, over
    every process read since ``start()``, of the largest VmHWM it was
    read with: an operator releases its actors before the tasks of later
    operators have run, so no single reading sees all of them."""

    ACTIVE_CPU_S = 0.1

    def __init__(self):
        self.cpu0: dict[int, float] = {}
        self.hwm_kb: dict[int, int] = {}
        self.reset_ok = True

    def start(self) -> None:
        self.cpu0, self.hwm_kb = {}, {}
        for pid in _session_processes():
            self.cpu0[pid] = _cpu_s(pid)
            try:
                with open(f"/proc/{pid}/clear_refs", "w") as f:
                    f.write("5")  # reset the peak RSS to the current RSS
            except OSError:
                self.reset_ok = False

    def _active(self, pid: int) -> bool:
        if pid == os.getpid():
            return True
        title = _argv(pid)[0]
        if title.startswith(b"ray::") and not title.startswith(_NOT_BUSY):
            return True
        return pid in self.cpu0 and _cpu_s(pid) - self.cpu0[pid] >= self.ACTIVE_CPU_S

    def sample(self) -> None:
        for pid in _session_processes():
            if self._active(pid):
                kb = int(_proc_status(pid).get("VmHWM", "0 kB").split()[0])
                self.hwm_kb[pid] = max(self.hwm_kb.get(pid, 0), kb)

    @property
    def peak_mb(self) -> float:
        return sum(self.hwm_kb.values()) / 1024.0


# ---------------------------------------------------------------------------
# executions
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload, seed: int, deadline: float, memory: MemoryProbe):
        self.w = workload
        self.memory = memory
        self.seed = seed
        self.deadline = deadline
        self.dir = os.path.join(WORK, workload.name)
        self.in_dir = os.path.join(self.dir, "in")
        self.session: Session | None = None
        self.expected = None
        self.info: dict = {}
        self.n_out = 0
        self.warmup_s = 0.0
        self.problems: list[str] = []  # failed checks outside executions

    def out_dir(self) -> str:
        self.n_out += 1
        return os.path.join(self.dir, f"out{self.n_out}")

    def setup(self, trace_dir: str | None = None) -> float:
        """Session start, seeded inputs, off-clock expected answers, one
        untimed warm-up execution; returns its seconds (verification of
        the warm-up output excluded)."""
        from perfbench import gen

        t0 = time.perf_counter()
        self.session = Session(trace_dir)
        ta = time.perf_counter()
        self.info.update(gen.generate(self.in_dir, self.seed, self.w.sizes))
        tb = time.perf_counter()
        self.info.update(self.w.prepare(self.in_dir, self.dir))
        tc = time.perf_counter()
        self.expected = self.w.expected(self.in_dir)
        t1 = time.perf_counter()
        log(f"setup phases: session {ta - t0:.2f} s, inputs {tb - ta:.2f} s, "
            f"prepare {tc - tb:.2f} s, expected {t1 - tc:.2f} s")
        out_dir = self.out_dir()
        out = self.w.execute(self.in_dir, self.dir, out_dir)
        t2 = time.perf_counter()
        self.warmup_s = t2 - t1
        problem, _ = self.w.verify(out, self.expected, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        if problem:
            raise RuntimeError(f"warm-up output wrong: {problem}")
        return t2 - t0

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def execute_once(self, timeout: float, tracer=None) -> dict:
        """One timed execution, then its off-clock verification. With a
        driver ``tracer``, the record keeps the execution's operator stats."""
        out_dir = self.out_dir()
        if tracer:
            tracer.reset()
        # The previous execution's actor-pool actors are freed only when the
        # driver's cyclic garbage collector runs; until then they hold their
        # CPUs, and the next execution's tasks wait (about 20 s, until Ray
        # asks every process for a GC). A job runs one execution per
        # driver, so each timed execution starts with them gone.
        gc.collect()
        self.memory.start()
        t0 = time.perf_counter()
        rec = {"t0": t0, "ok": False, "extra": {}}
        try:
            out = call_with_timeout(
                lambda: self.w.execute(self.in_dir, self.dir, out_dir), timeout)
            rec["wall_s"] = time.perf_counter() - t0
            rec["peak_rss_mb"] = self.memory.peak_mb
            if tracer:
                rec["ops"] = tracer.reset()
            problem, rec["extra"] = self.w.verify(out, self.expected, out_dir)
        except ExecutionTimeout:
            problem = f"timeout after {timeout:.0f} s"
            rec["timeout"] = True
        except Exception as e:  # any engine failure counts toward failed
            problem = f"{type(e).__name__}: {e}"
        rec["t1"] = rec["t0"] + rec.get("wall_s", time.perf_counter() - t0)
        rec["problem"] = problem
        rec["ok"] = problem is None
        log(f"execution {self.n_out}: {rec.get('wall_s', float('nan')):.3f} s"
            + (f", failed: {problem}" if problem else ""))
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec

    def measure(self, seconds: float, min_execs: int, tracer=None) -> list[dict]:
        timeout = max(TIMEOUT_MIN_S, TIMEOUT_WARMUP_MULT * self.warmup_s)
        recs: list[dict] = []
        t_start = time.perf_counter()
        while True:
            now = time.perf_counter()
            if now - t_start >= seconds and len(recs) >= min_execs:
                break
            last = recs[-1].get("wall_s", timeout) if recs else self.warmup_s
            if recs and now + last > self.deadline:
                log("run budget reached; stopping early")
                break
            rec = self.execute_once(min(timeout, max(1.0, self.deadline - now)), tracer)
            recs.append(rec)
            if rec.get("timeout"):
                break  # the session may still be busy; stop measuring
        return recs


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    from perfbench.trace import median

    setup_s = runner.setup()
    log(f"setup: {setup_s:.2f} s (warm-up {runner.warmup_s:.2f} s)")
    recs = runner.measure(seconds, MIN_EXECUTIONS)
    ok = [r for r in recs if r["ok"]]
    walls = [r["wall_s"] for r in ok]
    metrics = {
        "wall_s": median(walls) if walls else 0.0,
        "rows_per_s": median([runner.w.input_rows / w for w in walls]) if walls else 0.0,
        "success_ratio": len(ok) / len(recs),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]) if ok else 0.0,
        "setup_s": setup_s,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, recs


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """Untraced executions in a plain session, then traced executions in
    a session whose workers install the layer wrappers, each for half of
    ``seconds``; per-layer numbers are medians over the traced
    executions."""
    from perfbench import layers, trace
    from perfbench.trace import median

    runner.setup()
    warmup_s = runner.warmup_s  # untraced, as end-to-end setup_s pays it
    plain = runner.measure(seconds / 2, MIN_EXECUTIONS)
    runner.teardown()

    trace_dir = os.path.join(runner.dir, "trace")
    shutil.rmtree(trace_dir, ignore_errors=True)
    tracer = trace.DriverTracer()
    layers.install_driver(tracer, trace_dir)
    runner.setup(trace_dir)
    traced = runner.measure(seconds / 2, MIN_EXECUTIONS, tracer)
    spans = trace.read_spans(trace_dir)

    per_exec = []
    for r in traced:
        if not r["ok"]:
            continue
        mine = [s for s in spans if r["t0"] <= s["w0"] and s["w1"] <= r["t1"]]
        m = layers.summarize(mine, r["ops"], r["wall_s"])
        m.update(r["extra"])
        per_exec.append(m)
    with open(os.path.join(trace_dir, "summary.json"), "w") as f:
        json.dump([{"wall_s": r["wall_s"], "layers": m,
                    "ops": [{"role": role, **vars(op)} for role, op in r["ops"]]}
                   for r, m in zip([r for r in traced if r["ok"]], per_exec)],
                  f, indent=1)
    metrics = {}
    for name, unit, *_ in layers.PER_LAYER:
        vals = [m[name] for m in per_exec if name in m]
        metrics[name] = (median(vals) if vals else 0.0, unit)
    try:
        engine = runner.w.engine_skew(runner.in_dir, runner.dir)
    except Exception as e:  # the check cannot run: it fails
        engine = None
        runner.problems.append(f"state.skew.cell_skew_summary: {type(e).__name__}: {e}")
    if engine is not None:
        # the group-kernel spans must see the histogram the engine records
        seen = (metrics["exchange.groups"][0], metrics["exchange.max_group_rows"][0])
        if seen != (engine["n_cells"], engine["max"]):
            runner.problems.append(
                f"spans saw (groups, max group rows) {seen}, state.skew."
                f"cell_skew_summary says {(engine['n_cells'], engine['max'])}")
        runner.info["engine_skew"] = engine
    plain_w = [r["wall_s"] for r in plain if r["ok"]]
    traced_w = [r["wall_s"] for r in traced if r["ok"]]
    if plain_w and traced_w:
        metrics["trace.overhead_ratio"] = (median(traced_w) / median(plain_w), "ratio")
    metrics["pool.warmup_s"] = (warmup_s, "s")
    return metrics, plain + traced


def environment(runner: Runner) -> dict:
    import numpy
    import pyarrow
    import ray

    from ssb_sgis_ray.sources import lance_io

    return {
        # what `nproc` prints: OMP_NUM_THREADS when set, else the cores
        # this process may run on
        "nproc": int(os.environ.get("OMP_NUM_THREADS") or 0)
        or len(os.sched_getaffinity(0)),
        "cores_in_affinity": len(os.sched_getaffinity(0)),
        "logical_cpus": NUM_CPUS,
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "lance": lance_io.HAVE_LANCE,
        **runner.info,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "ssb_sgis_ray", "__init__.py")):
        log(f"error: no ssb_sgis_ray package in {ROOT}; perfbench/ must sit in the repository root")
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2

    # this process's own imports are paid once, before the first
    # set-up, so every timed set-up does the same work
    import duckdb  # noqa: F401
    import ray.data  # noqa: F401
    import tools.check_oracle  # noqa: F401
    import ssb_sgis_ray.pipelines.flagship  # noqa: F401
    import ssb_sgis_ray.queries  # noqa: F401

    from perfbench import layers

    memory = MemoryProbe()
    layers.on_execution_end(before_release=memory.sample)
    t_start = time.perf_counter()
    runner = Runner(WORKLOADS[args.workload], args.seed, t_start + RUN_BUDGET_S, memory)
    ray_stop()
    shutil.rmtree(runner.dir, ignore_errors=True)
    try:
        if args.trace:
            metrics, recs = per_layer(runner, args.seconds)
        else:
            metrics, recs = end_to_end(runner, args.seconds)
        env = environment(runner)
    finally:
        runner.teardown()
        ray_stop()
        shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)

    failed = sum(not r["ok"] for r in recs)
    # a timed-out execution is a failure but not a wrong answer
    correct = all(r["ok"] or r.get("timeout") for r in recs) and not runner.problems
    for problem in runner.problems:
        log(f"check failed: {problem}")
    env["error_ratio"] = failed / len(recs)
    env["executions"] = len(recs)
    env["check_failures"] = runner.problems
    env["rss_reset"] = memory.reset_ok
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
