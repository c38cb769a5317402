"""Builds the benchmark: compiles the program's sources and the benchmark's
own with the Scala compiler that ships with Spark, into .bench_build/ at the
root of the checkout. A build is skipped when no source changed.

    python3 perfbench/build.py          # main classes
    python3 perfbench/build.py --tests  # main and test classes
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
MAIN_SOURCES = BENCH / "src" / "main" / "scala"
TEST_SOURCES = BENCH / "src" / "test" / "scala"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise BuildError("Spark not found: set SPARK_HOME")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no Scala compiler among the Spark jars in {jars}")
    return jars


def scala_files(*dirs: Path) -> list:
    files = []
    for d in dirs:
        if not d.is_dir():
            raise BuildError(f"source directory {d} not found")
        files += sorted(d.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def compile_into(out: Path, sources: list, classpath: str, depends: str = "") -> None:
    """Compiles `sources` into `out`, unless a build of the same sources,
    against the same `depends` (the stamp of the classes they use), is there."""
    digest = hashlib.sha256((classpath + depends).encode())
    for f in sources:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = out / ".stamp"
    if stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    print(f"build: compiling {len(sources)} files into {out.relative_to(ROOT)}", file=sys.stderr)
    cmd = ["java", "-Xmx1g", "-cp", classpath, "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
           "-d", str(tmp)] + [str(f) for f in sources]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("compilation failed")
    stamp_tmp = tmp / ".stamp"
    stamp_tmp.write_text(digest.hexdigest())
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)


def build(tests: bool = False) -> str:
    """Builds and returns the classpath to run the benchmark (and its tests) with."""
    jars = f"{spark_jars()}/*"
    classes = BUILD / "classes"
    compile_into(classes, scala_files(PROGRAM_SOURCES, MAIN_SOURCES), jars)
    classpath = f"{classes}{os.pathsep}{jars}"
    if tests:
        test_classes = BUILD / "test-classes"
        compile_into(test_classes, scala_files(TEST_SOURCES), classpath, (classes / ".stamp").read_text())
        classpath = f"{test_classes}{os.pathsep}{classpath}"
    return classpath


if __name__ == "__main__":
    try:
        build(tests="--tests" in sys.argv[1:])
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        sys.exit(1)
