"""The CLI as a process.  `python -m covercalc.cli` ends in `cli.run`, which
flushes stdout and stderr and leaves through `os._exit`; the golden replay
calls `main` in the test process and never reaches that path, so these tests
run real subprocesses."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_corpus import CORPUS, entry_argv

REPO = Path(__file__).resolve().parent.parent
ENTRIES = {entry["name"]: entry for entry in json.loads(CORPUS.read_text())}
# One entry per command, a validation failure and a refusal (both exit 2),
# the --human table (written by print, not `_emit`) and the 5 MB ledger.
REPLAYED = [
    "integrate genus 1 value",
    "intersect-boundary M_2,2 separating x irreducible",
    "validate-ggraph valid-0",
    "validate-ggraph mutation-genus",
    "hurwitz-count d=6",
    "intersect-ggraph z2-gp-1",
    "pullback/s4-v4/corestriction-psi",
    "delliptic --dmax 12 --human",
    "delliptic --dmax 20 --ledger",
    "qmod-check delta01 normalized to q^40",
    "integrate negative genus",
]
INTEGRATE = ["integrate", "--genus", "1", "--exponents", "1"]
LEDGER = ["delliptic", "--dmax", "20", "--ledger"]


def _env(unbuffered: bool = False) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _cli(argv, unbuffered=False, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "covercalc.cli", *argv],
                          env=_env(unbuffered), timeout=120, **kwargs)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", REPLAYED)
def test_a_cli_process_writes_the_golden_bytes_to_a_pipe_and_to_a_file(name, tmp_path):
    entry = ENTRIES[name]
    argv = entry_argv(entry, tmp_path)
    piped = _cli(argv, capture_output=True)
    assert (piped.returncode, _sha256(piped.stdout), piped.stderr) == (
        entry["exit"], entry["sha256"], b"")
    path = tmp_path / "stdout"
    with path.open("wb") as out:
        filed = _cli(argv, stdout=out, stderr=subprocess.PIPE)
    assert (filed.returncode, _sha256(path.read_bytes()), filed.stderr) == (
        entry["exit"], entry["sha256"], b"")


def test_help_as_a_process_prints_usage_and_exits_0():
    done = _cli(["hurwitz-count", "--help"], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: covercalc hurwitz-count")
    assert "--weighted" in done.stdout


_ATEXIT = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("teardown ran\\n"))
sys.argv = ["covercalc", *sys.argv[1:]]
runpy.run_module("covercalc.cli", run_name="__main__", alter_sys=True)
"""


def test_a_call_ends_without_the_interpreter_teardown():
    # a hook registered before the module runs as __main__ would fire in
    # the teardown that `sys.exit` starts, and never does after `os._exit`
    done = subprocess.run([sys.executable, "-c", _ATEXIT, *INTEGRATE], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["value"] == "1/24"


BROKEN_PIPE = "internal error: BrokenPipeError: [Errno 32] Broken pipe\n"
NO_SPACE = "internal error: OSError: [Errno 28] No space left on device\n"
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@BUFFERING
def test_a_pipe_closed_before_the_call_ends_it_with_exit_3_and_one_stderr_line(unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        done = _cli(INTEGRATE, unbuffered, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (3, BROKEN_PIPE)


@BUFFERING
def test_a_pipe_closed_mid_output_ends_the_call_with_exit_3_and_one_stderr_line(
        unbuffered, tmp_path):
    # as `delliptic --dmax 20 --ledger | head -c 10`: the reader leaves
    # after 10 of the 5 MB, more than a pipe holds
    err = tmp_path / "stderr"
    with err.open("wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "covercalc.cli", *LEDGER],
                                env=_env(unbuffered), stdout=subprocess.PIPE, stderr=stderr)
        head = proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert head == b'{\n  "dmax"'
    assert (code, err.read_text()) == (3, BROKEN_PIPE)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@BUFFERING
@pytest.mark.parametrize("argv", [INTEGRATE, LEDGER], ids=["integrate", "ledger"])
def test_a_full_device_ends_the_call_with_exit_3_and_one_stderr_line(unbuffered, argv):
    with open("/dev/full", "wb") as full:
        done = _cli(argv, unbuffered, stdout=full, stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (3, NO_SPACE)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@BUFFERING
def test_a_failing_stderr_does_not_change_the_exit_code(unbuffered):
    with open("/dev/full", "wb") as full:
        done = _cli(INTEGRATE, unbuffered, stdout=full, stderr=full)
    assert done.returncode == 3


CLOSED_STDOUT = "internal error: OSError: stdout is closed\n"
# run in the child before it starts, as a shell's `>&-` and `>&- 2>&-`: its
# interpreter starts with sys.stdout (and sys.stderr) None
CLOSE_STDOUT = functools.partial(os.closerange, 1, 2)
CLOSE_STDOUT_AND_STDERR = functools.partial(os.closerange, 1, 3)


@pytest.mark.parametrize("argv", [INTEGRATE, ["delliptic", "--dmax", "4", "--human"]],
                         ids=["integrate", "delliptic-human"])
def test_a_call_started_with_stdout_closed_exits_3_with_one_stderr_line(argv):
    # both once ended in AttributeError tracebacks and exit 1: integrate in
    # `_emit` and the --human table (written by print) in `run`'s flush
    done = _cli(argv, stderr=subprocess.PIPE, text=True, preexec_fn=CLOSE_STDOUT)
    assert (done.returncode, done.stderr) == (3, CLOSED_STDOUT)


def test_a_call_started_with_stdout_and_stderr_closed_exits_3():
    done = _cli(INTEGRATE, preexec_fn=CLOSE_STDOUT_AND_STDERR)
    assert done.returncode == 3


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@BUFFERING
def test_help_on_a_full_device_exits_3_with_one_stderr_line(unbuffered):
    # unbuffered, argparse's own `_print_message` swallowed the write's
    # OSError and the call exited 0 having written nothing
    with open("/dev/full", "wb") as full:
        done = _cli(["hurwitz-count", "--help"], unbuffered, stdout=full,
                    stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (3, NO_SPACE)
