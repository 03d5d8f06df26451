#!/usr/bin/env python3
"""The repository benchmark: build, prime and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench/ (the fitact library from ../src plus the benchmark binary) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then trains the
stage-1 checkpoints the workloads load into .bench_build/perfbench_cache.
Neither step is timed. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones.

--self-test runs every workload at tiny sizes, checks that each metric
BENCHMARK.json names is emitted with its unit, and checks that the
correctness gate trips on a deliberately corrupted answer.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def source_id():
    """git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def build_env():
    """Compiler scratch files stay inside the checkout too."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no fitact sources (CMakeLists.txt, src/) next to perfbench/")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr,
                             env=build_env())
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    bld = subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                          "-j", jobs], stdout=sys.stderr, stderr=sys.stderr,
                         env=build_env())
    if bld.returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench")


def prime(binary):
    """Train the checkpoints once per binary; later runs only load them."""
    stamp = os.path.join(ROOT, ".bench_build", "perfbench_cache", "primed")
    st = os.stat(binary)
    key = f"{st.st_size}:{st.st_mtime_ns}"
    if os.path.isfile(stamp) and open(stamp).read() == key:
        return
    res = subprocess.run([binary, "--prime"], cwd=ROOT, stdout=sys.stderr,
                         stderr=sys.stderr)
    if res.returncode != 0:
        fail("priming the checkpoints failed")
    os.makedirs(os.path.dirname(stamp), exist_ok=True)
    with open(stamp, "w") as fh:
        fh.write(key)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def run_binary(binary, argv):
    """Run the binary; return (exit code, parsed last line or None)."""
    res = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=sys.stderr, text=True)
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    for line in lines[:-1]:  # fingerprint and host lines
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1], file=sys.stderr)
    return res.returncode, result


def missing_metrics(spec, result, trace):
    """Metric names (and units) of BENCHMARK.json the result lacks."""
    if spec is None:
        return []
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result.get("metrics", {})
    bad = []
    for m in want:
        entry = got.get(m["name"])
        if entry is None or entry.get("unit") != m["unit"]:
            bad.append(f"{m['name']} [{m['unit']}]")
    return bad


def select_metrics(spec, result, trace):
    """Keep the metrics BENCHMARK.json lists for this mode, in its order."""
    if spec is None:
        return result
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    out = dict(result)
    out["metrics"] = {m["name"]: got[m["name"]] for m in want}
    return out


def self_test(binary, spec):
    listed = subprocess.run([binary, "--list"], capture_output=True,
                            text=True).stdout.splitlines()
    workloads = [tuple(line.split("\t", 1)) for line in listed if line]
    names = [name for name, _ in workloads]
    problems = []
    if spec is not None and [(w["name"], w["why"]) for w in spec["workloads"]] \
            != workloads:
        problems.append("BENCHMARK.json workloads differ from the binary's")
    for name in names:
        for trace in (0, 1):
            code, result = run_binary(binary, [
                "--workload", name, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny", "--commit", "self-test"])
            if code != 0 or result is None:
                problems.append(f"{name} trace {trace}: exit {code}")
                continue
            if not result.get("correct"):
                problems.append(f"{name} trace {trace}: gate failed on clean run")
            for m in missing_metrics(spec, result, trace):
                problems.append(f"{name} trace {trace}: missing {m}")
        code, result = run_binary(binary, [
            "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0",
            "--tiny", "--corrupt", "--commit", "self-test"])
        if result is None or result.get("correct") is not False:
            problems.append(f"{name}: gate did not trip on a corrupted answer")
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass",
                      "workloads": names, "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    spec = load_spec()
    binary = build()
    prime(binary)
    if args.self_test:
        return self_test(binary, spec)

    code, result = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--commit", source_id()])
    if code != 0 or result is None:
        fail(f"perfbench exited with {code} and no result", 1)
    missing = missing_metrics(spec, result, args.trace)
    if missing:
        fail("result lacks metrics: " + ", ".join(missing), 1)
    print(json.dumps(select_metrics(spec, result, args.trace)))
    return 0 if result.get("correct") else 1


if __name__ == "__main__":
    sys.exit(main())
