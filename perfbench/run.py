#!/usr/bin/env python3
"""ctsdd benchmark: build the binary, run one workload, check, report.

Run from the root of a checkout:

  python3 perfbench/run.py --workload db_churn --seed 1 --seconds 40 --trace 0

--workload is db_churn, cold_compile, or all (every workload,
untraced and traced). --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. The ctsdd_perfbench binary is built
from source into $CARGO_TARGET_DIR (default .bench_build) on first use.
Every metric is printed with its unit and sample count; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Exit code 0 means a result was printed.

workloads.json "exact_counts" lists, per workload and trace mode, the
counts the binary must emit; a missing or unlisted count is an error.
They must repeat in every run of one workload at one seed on one source
tree: run.py keeps them in the build directory and reports a drift as an
incorrect run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["db_churn", "cold_compile"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def source_hash():
    """Hash of every file the binary is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.suffix in (".pyc",) or "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown (not a git checkout)"


def build(out_dir, tree_hash):
    """Configures and builds the binary unless this source tree is built."""
    binary = out_dir / "perfbench" / "ctsdd_perfbench"
    stamp = out_dir / "perfbench" / "source_hash"
    if binary.exists() and stamp.exists() and stamp.read_text() == tree_hash:
        return binary
    (out_dir / "perfbench").mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_log = out_dir / "perfbench" / "build.log"
    with open(build_log, "w") as sink:
        for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir / "perfbench"),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(out_dir / "perfbench"), "-j", jobs,
                     "--target", "ctsdd_perfbench"]):
            if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT).returncode != 0:
                log(f"build failed; see {build_log}")
                log("".join(open(build_log).readlines()[-20:]))
                sys.exit(1)
    stamp.write_text(tree_hash)
    return binary


def run_binary(binary, workload, seed, seconds, trace):
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=175)
    if proc.returncode != 0:
        log(proc.stderr)
        log(f"ctsdd_perfbench exited with {proc.returncode}")
        sys.exit(1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_exact_counts(out_dir, key, counts):
    """Errors for counts that differ from an earlier run with the same key."""
    path = out_dir / "perfbench" / "exact_counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    earlier = known.get(key, {})
    errors = [f"exact count {name} drifted: {earlier[name]} earlier, {value} now"
              for name, value in counts.items() if name in earlier and earlier[name] != value]
    known[key] = {**earlier, **counts}
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return errors


def run_one(binary, spec, defaults, workload, seed, seconds, trace, tree_hash, out_dir):
    report = run_binary(binary, workload, seed, seconds, trace)
    errors = list(report["errors"])
    tolerance = defaults["replay_unaccounted_tolerance"]
    for m in report["metrics"]:
        # The stage spans must add up to the replayed request time.
        if m["name"] == "replay.unaccounted_frac" and abs(m["value"]) > tolerance:
            errors.append(f"replay.unaccounted_frac {m['value']:.3f} exceeds {tolerance}")
    listed = defaults["exact_counts"][workload]["traced" if trace else "untraced"]
    emitted = report["exact_counts"]
    errors += [f"exact count {name} missing" for name in listed if name not in emitted]
    errors += [f"exact count {name} not listed in workloads.json"
               for name in emitted if name not in listed]
    errors += check_exact_counts(out_dir, f"{workload}/seed={seed}/src={tree_hash}", emitted)
    wanted = spec["per_layer" if trace else "end_to_end"]
    measured = {m["name"]: m for m in report["metrics"]}
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        m = measured.get(name)
        if m is None and trace:
            # A layer this workload does not cross (see workloads.json).
            m = {"name": name, "value": 0.0, "unit": entry["unit"], "samples": 0}
        if m is None:
            errors.append(f"metric {name} missing")
            continue
        if m["unit"] != entry["unit"]:
            errors.append(f"metric {name} has unit {m['unit']}, expected {entry['unit']}")
        metrics[name] = m
    provenance = dict(report["provenance"], commit=commit(), source_hash=tree_hash,
                      workload=workload, seed=seed, seconds=seconds, trace=trace)
    provenance["flagged"] = provenance["build_type"] != "Release" or provenance["asserts"]
    print(f"== {workload} seed={seed} trace={trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if provenance["flagged"]:
        print("WARNING: not a Release build; these numbers measure a different program")
    print(f"checked {report['attempted']} answers, {report['failed']} failed "
          f"(failed_frac {report['failed'] / max(1, report['attempted']):.6g})")
    for name, value in sorted(report["exact_counts"].items()):
        print(f"exact {name} = {value}")
    for m in metrics.values():
        print(f"metric {m['name']:<30} {m['value']:>16.6g} {m['unit']:<6} "
              f"samples={m['samples']}{'' if m['samples'] else '  (n/a on this workload)'}")
    for e in errors:
        print(f"ERROR {e}")
    record = {"provenance": provenance, "report": report, "errors": errors}
    results = out_dir / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": not errors and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.json default_seed)")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists() or not (ROOT / "src").is_dir():
        log("run from the root of a ctsdd checkout (BENCHMARK.json and src/ are needed)")
        sys.exit(1)
    spec = json.loads(spec_path.read_text())
    defaults = json.loads((BENCH_DIR / "workloads.json").read_text())
    seed = defaults["default_seed"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    out_dir = build_dir()
    tree_hash = source_hash()
    binary = build(out_dir, tree_hash)
    if args.workload != "all":
        result = run_one(binary, spec, defaults, args.workload, seed, seconds, args.trace,
                         tree_hash, out_dir)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                one = run_one(binary, spec, defaults, workload, seed, seconds, trace,
                              tree_hash, out_dir)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, m in one["metrics"].items():
                    result["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(result))


if __name__ == "__main__":
    main()
