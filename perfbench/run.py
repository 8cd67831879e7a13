"""Fresh-process benchmark of the spechtmod CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample runs one CLI command of ``workloads.json`` in a new interpreter,
because ``functools.cache`` makes timings inside one process depend on what
ran before.  The loop is closed with one client: the next child starts when the
previous one has exited, and the loop ends at the child boundary nearest to S
seconds, judged by the median child so far (the first child always runs).
Children get a pinned environment: ``src`` on PYTHONPATH, SPECHTMOD_JOBS unset,
``--jobs 1`` in the verify argv, PYTHONHASHSEED=0, and a bytecode cache under
``perfbench/.work`` that is warmed before timing and never written by a timed
child.

Every child, traced or not, must reproduce the committed exit code and stdout
SHA-256 of its workload, and the report fields named in ``workloads.json``.

``--trace 0`` reports, as medians over the run's samples:

- ``wall_s``: seconds from spawning a child to its exit;
- ``cpu_s``: user + sys CPU seconds of the child;
- ``peak_rss_mb``: the child's peak resident set size;
- ``setup_s``: wall time of a fresh interpreter running ``import spechtmod.cli``.

``failed_frac`` (children failing the gate over children run) is printed in
the summary and carried by ``failed`` / ``attempted`` in the result line.

``--trace 1`` runs the workload once untraced and once under ``tracer.py``,
which records spans around the public functions of each module, and reports
self times and counts per layer, ``trace.overhead_s`` (traced minus untraced
wall time), and the ROADMAP baseline layer table.  A layer the workload never
calls reports 0; a metric whose function is gone from the program is left out.

The seed fixes the order of the run's children: where the ``setup_s`` probes
fall between workload children, and whether the traced child runs first.  The
inputs are fixed, since the computation is deterministic.

BENCHMARK.json runs ``verify-p5n16`` and ``fock-p7n22``: with only two
workloads in its set each run can measure 55 s, which the host's drift needs.
``oracle-p5-t442`` runs by hand with the same command.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every child passed the gate,
1 when one failed, 2 when the benchmark could not run.
"""

import argparse
import array
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
RUN_BUDGET_S = 170      # a run, its set-up included, ends within this
SETUP_PROBES = 15
SETUP_ARGV = ["-c", "import spechtmod.cli"]
# modules the CLI imports lazily, cached along with the import above
WARM_ARGV = ["-c", "import spechtmod.cli, locale"]

# per-layer metric -> (span names, statistic); self times are in seconds
LAYER_METRICS = {
    "fock.first_approximation_s": (("fock.first_approximation",), "self_s"),
    "fock.llt_canonical_s": (("fock.llt_canonical",), "self_s"),
    "fock.table_invariants_s": (("fock._assert_table_invariants",), "self_s"),
    "fock.nmat_at_one_s": (("fock.nmat_at_one",), "self_s"),
    "fock.invert_unitriangular_s": (("fock.invert_unitriangular",), "self_s"),
    "fock.order_size": (("fock.llt_canonical",), "size_max"),
    "fock.nmat_nonzeros": (("fock.nmat_at_one",), "size_max"),
    "tableaux.class_enum_s": (("tableaux.ladder_class_of_shape",), "self_s"),
    "tableaux.pairs_visited": (("tableaux.ladder_class_of_shape",), "calls"),
    "tableaux.pairs_nonempty": (("tableaux.ladder_class_of_shape",),
                                "nonempty"),
    "tableaux.class_members": (("tableaux.ladder_class_of_shape",),
                               "size_sum"),
    "seminormal.phi_action_s": (("seminormal.phi_action",), "self_s"),
    "seminormal.phi_action_calls": (("seminormal.phi_action",), "calls"),
    "seminormal.act_by_word_s": (("seminormal.act_by_word",), "self_s"),
    "seminormal.act_by_word_calls": (("seminormal.act_by_word",), "calls"),
    "seminormal.inner_product_s": (("seminormal.inner_product",), "self_s"),
    "seminormal.inner_product_calls": (("seminormal.inner_product",),
                                       "calls"),
    "ranks.phi_chain_basis_s": (("ranks.phi_chain_basis",), "self_s"),
    "ranks.ladder_symmetrize_s": (("ranks.ladder_symmetrize",), "self_s"),
    "ranks.gram_matrix_s": (("ranks.gram_matrix",), "self_s"),
    "ranks.modp_rank_s": (("ranks.modp_rank",), "self_s"),
    "ranks.gram_report_s": (("ranks.gram_report",), "self_s"),
    "ranks.chain_vectors": (("ranks.phi_chain_basis",), "size_sum"),
    "ranks.sym_vectors": (("ranks.ladder_symmetrize",), "size_sum"),
    "ranks.gram_entries": (("ranks.gram_matrix",), "size_sum"),
    "ranks.rank_sum": (("ranks.modp_rank",), "size_sum"),
    "verify.m_matrix_s": (("verify.m_matrix",), "self_s"),
    "verify.assembly_s": (("verify.conjecture_check",), "self_s"),
    "verify.gram_oracle_s": (("verify.gram_oracle_dimD",), "self_s"),
    "verify.checks": (("verify.conjecture_check",), "size_sum"),
    "cli.serialize_s": (("cli._cmd_fock", "cli._cmd_verify", "cli._cmd_oracle"),
                        "self_s"),
}

# span name -> row of the ROADMAP baseline layer table; spans of the
# seminormal kernel take the row of the span that called them
ROADMAP_ROWS = {
    "fock.first_approximation": "first approximations",
    "fock.llt_canonical": "LLT elimination",
    "fock._assert_table_invariants": "table invariants",
    "fock.nmat_at_one": "q=1 evaluation and inversion",
    "fock.invert_unitriangular": "q=1 evaluation and inversion",
    "tableaux.ladder_class_of_shape": "class enumeration",
    "ranks.phi_chain_basis": "phi chains",
    "ranks.ladder_symmetrize": "ladder symmetrization",
    "ranks.gram_matrix": "Gram matrix",
    "ranks.modp_rank": "mod-p rank",
    "verify.conjecture_check": "check assembly",
    "cli._cmd_fock": "report serialisation",
    "cli._cmd_verify": "report serialisation",
    "cli._cmd_oracle": "report serialisation",
    "ranks.gram_report": "m-matrix driver (not in ROADMAP)",
    "verify.m_matrix": "m-matrix driver (not in ROADMAP)",
    "verify.gram_oracle_dimD": "oracle basis (not in ROADMAP)",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(write_bytecode: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "SPECHTMOD_JOBS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(argv, env, deadline):
    """Run ``python argv`` to its exit; return (exit code, stdout, wall, rusage)."""
    argv = [sys.executable, *argv]
    rfd, wfd = os.pipe()
    with open(WORK / "stderr.log", "wb") as err:
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, wfd, 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
    os.close(wfd)
    chunks, reaped = [], False
    try:
        with open(rfd, "rb", buffering=0) as out:
            while True:
                left = deadline - time.perf_counter()
                if left <= 0 or not select.select([out], [], [], left)[0]:
                    raise BenchError(f"{argv[1:]} overran the run budget")
                chunk = out.read(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), b"".join(chunks), wall, usage


def passes_gate(workload: str, code: int, out: bytes) -> bool:
    golden = WORKLOADS[workload]
    if (code != golden["exit_code"]
            or hashlib.sha256(out).hexdigest() != golden["stdout_sha256"]):
        return False
    if not golden["report"]:
        return True
    report = json.loads(out)
    return all(report.get(k) == v for k, v in golden["report"].items())


def stderr_tail() -> str:
    return (WORK / "stderr.log").read_text(errors="replace")[-2000:]


def prepare(deadline):
    """Check the checkout and warm the bytecode cache children will read."""
    if not (ROOT / "src" / "spechtmod" / "cli.py").is_file():
        raise BenchError(f"no spechtmod sources under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    code, _, _, _ = spawn(WARM_ARGV, child_env(write_bytecode=True), deadline)
    if code != 0:
        raise BenchError(f"importing spechtmod failed:\n{stderr_tail()}")


def git_commit():
    """HEAD of the checkout, read without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "argv": WORKLOADS[args.workload]["argv"],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "commit": git_commit(),
            "child_env": {k: v for k, v in child_env().items()
                          if k.startswith("PYTHON")}}


class Sample:
    """One workload child: its timings and whether it passed the gate."""

    def __init__(self, workload, code, out, wall, usage):
        self.ok = passes_gate(workload, code, out)
        self.wall = wall
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.report_bytes = len(out)
        if not self.ok:
            print(f"gate failed: exit {code}, {len(out)} stdout bytes\n"
                  f"{stderr_tail()}", file=sys.stderr)


def measure(args, rng, deadline) -> dict:
    """The closed loop of --trace 0, with setup probes placed by the seed."""
    argv = ["-m", "spechtmod", *WORKLOADS[args.workload]["argv"]]
    probes = []

    def probe(count):
        for _ in range(min(count, SETUP_PROBES - len(probes))):
            code, _, wall, _ = spawn(SETUP_ARGV, child_env(), deadline)
            if code != 0:
                raise BenchError(f"import probe failed:\n{stderr_tail()}")
            probes.append(wall)

    samples = []
    stop = time.perf_counter() + args.seconds
    while True:
        probe(rng.randint(0, 3))
        samples.append(Sample(args.workload,
                              *spawn(argv, child_env(), deadline)))
        pace = statistics.median(s.wall for s in samples)
        if time.perf_counter() + pace / 2 > stop:
            break
    probe(SETUP_PROBES)
    series = {
        "wall_s": ([s.wall for s in samples], "s"),
        "cpu_s": ([s.cpu for s in samples], "s"),
        "setup_s": (probes, "s"),
        "peak_rss_mb": ([s.rss_mb for s in samples], "MB"),
    }
    metrics = {}
    for name, (values, unit) in series.items():
        metrics[name] = (statistics.median(values), unit)
        print(f"{name:<12} median {metrics[name][0]:10.4f} {unit:<2}  "
              f"min {min(values):10.4f}  max {max(values):10.4f}  "
              f"n {len(values)}")
    n, failed = len(samples), sum(not s.ok for s in samples)
    print(f"{'failed_frac':<12} {failed / n:17.4f}     {failed} of {n}")
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": metrics}


def read_spans(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for field, code in header["arrays"]:
            cols[field] = array.array(code)
            cols[field].fromfile(fh, header["count"])
    return header, cols


def layer_table(header, cols):
    """Per span name: calls, self time, sizes; and self time per ROADMAP row."""
    names = header["names"]
    dur = [e - s for s, e in zip(cols["start"], cols["end"])]
    self_s = list(dur)
    for span, parent in enumerate(cols["parent"]):
        if parent >= 0:
            self_s[parent] -= dur[span]
    stats = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "size_sum": 0,
                                 "size_max": 0, "nonempty": 0,
                                 "unsized": False})
    rows = defaultdict(float)
    row_of = []
    for span, name_id in enumerate(cols["name"]):
        name = names[name_id]
        parent = cols["parent"][span]
        row = ROADMAP_ROWS.get(name) or (row_of[parent] if parent >= 0
                                         else "unattributed")
        row_of.append(row)
        rows[row] += self_s[span]
        st = stats[name]
        size = cols["size"][span]
        st["calls"] += 1
        st["self_s"] += self_s[span]
        st["unsized"] |= size < 0
        st["size_sum"] += max(size, 0)
        st["size_max"] = max(st["size_max"], size)
        st["nonempty"] += size > 0
    traced_total = sum(d for d, parent in zip(dur, cols["parent"])
                       if parent < 0)
    return stats, rows, traced_total


def layer_metrics(stats, missing, report_bytes) -> dict:
    metrics = {}
    for metric, (spans, stat) in LAYER_METRICS.items():
        if any(span in missing for span in spans):
            continue    # the program no longer has this boundary
        counted = [stats[span] for span in spans if span in stats]
        sized = stat in ("size_sum", "size_max", "nonempty")
        if sized and any(st["unsized"] for st in counted):
            continue    # a result no longer has the size this count reads
        unit = "s" if stat == "self_s" else "count"
        metrics[metric] = (sum((st[stat] for st in counted),
                               0.0 if unit == "s" else 0), unit)
    if "ranks.chain_vectors" in metrics and "ranks.sym_vectors" in metrics:
        chain = metrics["ranks.chain_vectors"][0]
        sym = metrics["ranks.sym_vectors"][0]
        metrics["ranks.useful_ratio"] = (sym / chain if chain else 0.0,
                                         "ratio")
    metrics["cli.report_bytes"] = (report_bytes, "bytes")
    return metrics


def print_roadmap_table(rows, traced_total, traced_wall, plain_wall):
    rows = dict(rows)
    rows["untraced code (startup, imports, parsing)"] = (
        traced_wall - traced_total)
    order = list(dict.fromkeys(ROADMAP_ROWS.values()))
    print(f"{'ROADMAP layer':<44} {'self s':>9} {'share':>7}")
    for row in order + [r for r in rows if r not in order]:
        if row in rows:
            print(f"{row:<44} {rows[row]:9.3f} {rows[row] / traced_wall:7.1%}")
    print(f"{'wall, traced child':<44} {traced_wall:9.3f}")
    print(f"{'wall, untraced child':<44} {plain_wall:9.3f}")


def trace(args, rng, deadline) -> dict:
    """One untraced and one traced child, in an order drawn from the seed."""
    cli_argv = WORKLOADS[args.workload]["argv"]
    spans_path = WORK / "spans.bin"
    plain = ["-m", "spechtmod", *cli_argv]
    traced = [str(HERE / "tracer.py"), str(spans_path), *cli_argv]
    order = [("plain", plain), ("traced", traced)]
    rng.shuffle(order)
    spans_path.unlink(missing_ok=True)
    samples = {kind: Sample(args.workload, *spawn(argv, child_env(), deadline))
               for kind, argv in order}
    if not spans_path.is_file():
        raise BenchError(f"the traced child wrote no spans:\n{stderr_tail()}")
    header, cols = read_spans(spans_path)
    spans_path.unlink()
    stats, rows, traced_total = layer_table(header, cols)
    traced_wall, plain_wall = samples["traced"].wall, samples["plain"].wall
    metrics = layer_metrics(stats, set(header["missing"]),
                            samples["traced"].report_bytes)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    print_roadmap_table(rows, traced_total, traced_wall, plain_wall)
    for name in sorted(metrics):
        value, unit = metrics[name]
        shown = f"{value:14.4f}" if isinstance(value, float) else f"{value:14d}"
        print(f"{name:<34} {shown} {unit}")
    failed = sum(not s.ok for s in samples.values())
    return {"correct": failed == 0, "attempted": len(samples),
            "failed": failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + RUN_BUDGET_S
    rng = random.Random(args.seed)
    try:
        prepare(deadline)
        print("env " + json.dumps(environment(args), sort_keys=True))
        result = (trace if args.trace else measure)(args, rng, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
