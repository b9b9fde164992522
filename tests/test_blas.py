"""The OpenBLAS pin: one thread inside the block, counts restored after it, bytes that do not depend on the count."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import specto._blas as blas
import specto.cli as cli
from specto._blas import libraries, one_thread
from specto.cli import main
from specto.matrix import Matrix, schur

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main([str(a) for a in argv])


def counts(libs):
    return [get() for _, get, _ in libs]


@pytest.fixture
def two_threads():
    """Every bundled OpenBLAS at two threads for the test, then back at its own count."""
    libs = libraries()
    if not libs:
        pytest.skip("no bundled OpenBLAS exports a thread-count setter here")
    before = counts(libs)
    for _, _, set_ in libs:
        set_(2)
    yield libs
    for (_, _, set_), n in zip(libs, before):
        set_(n)


def record_counts_in_fields(monkeypatch, libs):
    """The thread counts at each cli.compute_fields call, as a list the test reads afterwards."""
    during, fields = [], cli.compute_fields

    def recording(*args, **kwargs):
        during.append(counts(libs))
        return fields(*args, **kwargs)

    monkeypatch.setattr(cli, "compute_fields", recording)
    return during


@pytest.fixture
def w_csv(tmp_path):
    p = tmp_path / "w.csv"
    a = np.random.default_rng(0).standard_normal((6, 6)) * 0.4
    p.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in a))
    return p


@pytest.fixture
def no_zgees(monkeypatch):
    """Call it to rediscover as if numpy's OpenBLAS had no zgees, like an Accelerate or MKL build."""

    def switch():
        monkeypatch.setattr(blas, "_ZGEES", "scipy_LAPACKE_absent64_")
        blas._discover.cache_clear()

    yield switch
    monkeypatch.undo()
    blas._discover.cache_clear()


def test_finds_numpys_openblas_and_its_zgees():
    assert [name for name, _, _ in libraries()] == ["numpy"]
    assert blas._discover()[0] is not None


def test_zgees_takes_only_square_matrices():
    with pytest.raises(ValueError, match="square"):
        blas.complex_schur(np.ones((3, 2), dtype=np.complex128))


def test_nested_blocks_restore_the_outer_count(two_threads):
    ones = [1] * len(two_threads)
    with one_thread:
        assert counts(two_threads) == ones
        with one_thread:
            assert counts(two_threads) == ones
        assert counts(two_threads) == ones  # the inner exit keeps the outer pin
        assert one_thread.pinned == ("numpy",)
    assert counts(two_threads) == [2] * len(two_threads)
    assert one_thread.pinned == ()


def test_blocks_on_many_threads_keep_the_pin_until_the_last_exit(two_threads):
    # a lost update of the nesting depth would restore the counts inside a block, or never
    ones, errors = [1] * len(two_threads), []

    def enter_and_exit():
        for _ in range(200):
            with one_thread:
                if counts(two_threads) != ones:
                    errors.append(counts(two_threads))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter_and_exit) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == []
    assert counts(two_threads) == [2] * len(two_threads)
    assert one_thread.pinned == ()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "{w}", "--nx", "9", "--ny", "9"], 0),
        (["analyze", "{w}", "--eps", "0.5,0.1"], 2),
        (["analyze", "{missing}"], 3),
        (["analyze", "{overflow}"], 4),
    ],
    ids=("exit-0", "exit-2", "exit-3", "exit-4"),
)
def test_counts_restored_after_every_exit(tmp_path, w_csv, two_threads, monkeypatch, argv, code):
    overflow = tmp_path / "big.csv"
    overflow.write_text("1e308,1e308\n-1e308,1e308\n")
    paths = {"w": w_csv, "missing": tmp_path / "none.csv", "overflow": overflow}
    during = record_counts_in_fields(monkeypatch, two_threads)
    assert run([a.format(**paths) for a in argv] + ["--out", tmp_path / "o"]) == code
    assert all(c == [1] * len(two_threads) for c in during)
    assert counts(two_threads) == [2] * len(two_threads)


def test_without_a_setter_the_pin_does_nothing_and_timing_says_so(tmp_path, w_csv, two_threads, capsys, monkeypatch):
    flags = ["--nx", "9", "--ny", "9", "--timing"]
    assert run(["analyze", w_csv, "--out", tmp_path / "pinned", *flags]) == 0
    assert capsys.readouterr().err.splitlines()[0] == "blas: one thread (numpy)"
    monkeypatch.setattr(blas, "libraries", lambda: ())
    during = record_counts_in_fields(monkeypatch, two_threads)
    assert run(["analyze", w_csv, "--out", tmp_path / "unpinned", *flags]) == 0
    assert capsys.readouterr().err.splitlines()[0] == "blas: unpinned, no OpenBLAS thread setter found"
    assert during == [[2] * len(two_threads)]
    for name in ("report.json", "contours-w.csv", "portrait-w.svg"):  # n = 6: no threaded kernel here
        assert (tmp_path / "pinned" / name).read_bytes() == (tmp_path / "unpinned" / name).read_bytes()


def assert_analyze_bytes_do_not_depend_on_the_thread_count(tmp_path, command):
    """``command analyze`` of one n = 128 matrix gives the same stdout and files under 1 and 2 OpenBLAS threads."""
    a = np.random.default_rng(5).standard_normal((128, 128)) / np.sqrt(128) * 0.97
    path = tmp_path / "w128.csv"
    path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n" for row in a))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        out = tmp_path / f"o{threads}"
        proc = subprocess.run(
            [*command, "analyze", path, "--out", out, "--nx", "24", "--ny", "24"],
            env=env, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert sorted(outputs[0][1]) == ["contours-w128.csv", "portrait-w128.svg", "report.json"]
    assert outputs[0] == outputs[1]


def test_analyze_bytes_do_not_depend_on_the_openblas_thread_count(tmp_path):
    # at n = 128 a threaded SVD and Schur form round differently from a serial one
    if not libraries():
        pytest.skip("no bundled OpenBLAS exports a thread-count setter here")
    assert_analyze_bytes_do_not_depend_on_the_thread_count(tmp_path, [sys.executable, "-m", "specto.cli"])


def test_analyze_bytes_do_not_depend_on_the_openblas_thread_count_on_the_scipy_schur(tmp_path):
    if not libraries():
        pytest.skip("no bundled OpenBLAS exports a thread-count setter here")
    code = (
        "import specto._blas as b; b._ZGEES = 'scipy_LAPACKE_absent64_'; "
        "assert b._discover()[0] is None and [n for n, _, _ in b.libraries()] == ['numpy', 'scipy']; "
        "import specto.cli; specto.cli.entry()"
    )
    assert_analyze_bytes_do_not_depend_on_the_thread_count(tmp_path, [sys.executable, "-c", code])


def test_without_numpys_zgees_the_schur_form_comes_from_scipy(no_zgees):
    rng = np.random.default_rng(11)
    w = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    lapacke = np.diag(blas.complex_schur(w)[0])
    no_zgees()
    assert blas._discover()[0] is None
    factors = schur(Matrix(w))
    q, t = factors.q.array, factors.t.array
    scale = np.linalg.norm(w, 2)
    assert np.abs(q.conj().T @ q - np.eye(40)).max() < 1e-13
    assert np.array_equal(t, np.triu(t))
    assert np.abs(q @ t @ q.conj().T - w).max() < 1e-13 * scale
    assert np.abs(factors.eigenvalues - lapacke).max() <= 1e-13 * np.abs(lapacke).max()
    with one_thread:
        assert one_thread.pinned == ("numpy", "scipy")
    assert one_thread.pinned == ()


def test_no_command_imports_scipy(tmp_path):
    code = """
import sys
from pathlib import Path
from specto.cli import main
out = Path(sys.argv[1])
grid = ["--nx", "9", "--ny", "9"]
train = ["--hidden", "4", "--epochs", "1", "--train-size", "32", "--test-size", "8", "--seq-len", "4"]
assert main(["train", "--task", "adding", "--kind", "gru", "--out", str(out / "run"), *train]) == 0
gate = str(sorted((out / "run").glob("weights-final-*.pspc"))[0])
assert main(["analyze", gate, "--out", str(out / "a"), *grid]) == 0
assert main(["stabilize", gate, str(out / "s.pspc"), "-m", "20"]) == 0
assert main(["compare", gate, str(out / "s.pspc"), "--out", str(out / "c"), *grid]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, tmp_path], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
