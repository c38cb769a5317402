"""Runs one benchmark workload and prints its result as the last line of
standard output (see perfbench/README.md):

    python3 perfbench/run.py --workload archive --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

The first run in a checkout builds the program and the benchmark.
"""
import argparse
import subprocess
import sys
import threading

sys.dont_write_bytecode = True
import build  # noqa: E402

TIMEOUT_S = 170
# ParallelGC, the throughput collector, with a fixed heap and young generation:
# on these batch runs it is faster and steadier than G1 or an adaptive heap.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-Xmn1g", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy"]


def java(classpath: str, main: str, args: list) -> int:
    """Runs a JVM, passing its output through; returns its exit code, or 1
    when it prints no JSON result line or overruns the time limit."""
    work = build.BUILD / "work"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", classpath, main, "--work", str(work)] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    lines = []

    def echo():
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.strip():
                lines.append(line.strip())

    reader = threading.Thread(target=echo, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run: no result within {TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
    last = lines[-1] if lines else ""
    if code == 0 and main == "perfbench.Main" and not last.startswith("{"):
        print("run: no result line", file=sys.stderr)
        code = 1
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true", help="run the benchmark's own tests")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    try:
        classpath = build.build(tests=a.self_test)
    except build.BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        return 1
    if a.self_test:
        return java(classpath, "perfbench.SelfTest", [])
    return java(classpath, "perfbench.Main", ["--workload", a.workload, "--seed", str(a.seed),
                                              "--seconds", str(a.seconds), "--trace", a.trace])


if __name__ == "__main__":
    sys.exit(main())
