"""Peak memory of reading and building files, counted by tracemalloc.

numpy reports its buffers to tracemalloc, and the counts repeat exactly
from run to run, so each bound is a multiple of the array the call
handles: a little above what the call takes, and below what it took when
the decoder copied the whole payload string and the gates copied the
whole stack.  A read of a raw file allocates its array once, at its
exact size, and reads the bytes straight into it.
"""

import contextlib
import io
import json
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from gsicdetect import (construct_gsic, feasible_t, gell_mann_basis,
                        ppt_test, random_separable, read_gsic, read_state,
                        write_gsic, write_state)
from gsicdetect.cli import main
from gsicdetect.states import DensityMatrix, _read_head, _read_raw


def _peak(call) -> int:
    """Bytes traced at the peak of call(), above what was traced before it."""
    call()  # lazy set-up and caches, which a second call does not repeat
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _hermitian_state(n: int, seed: int) -> np.ndarray:
    """A dense, exactly Hermitian, positive definite n x n matrix of trace 1."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = z @ z.conj().T + n * np.eye(n)
    mat = mat + mat.conj().T
    return mat / np.trace(mat).real


@pytest.fixture(scope="module")
def set_file(tmp_path_factory):
    basis = gell_mann_basis(12)
    path = tmp_path_factory.mktemp("memory") / "g12.json"
    write_gsic(construct_gsic(basis, feasible_t(basis).t), path)
    return path


# the stack read from the file and the gate's bounded temporaries beside
# it (1.81 stacks; 2.03 when each slab was factored into a second
# buffer)
def test_reading_a_set_peaks_at_its_text_and_one_stack(set_file):
    stack = 16 * 12**4
    peak = _peak(lambda: read_gsic(set_file))
    assert peak <= 1.9 * stack, peak / stack


@pytest.mark.parametrize("kind", ["set", "state"])
def test_reading_a_d16_file_peaks_at_its_bytes_and_one_decoded_copy(tmp_path,
                                                                    kind):
    # the array, read straight from the file, and the finite check's
    # 1/16 of it: 1.07 for a state.  A set's gate adds its bounded
    # temporaries, 1.66 in all (1.79 with a second slab buffer); a dense
    # state's gate holds two matrices (the d = 12 test below), so the
    # state is measured up to its array
    path = tmp_path / "f.json"
    if kind == "set":
        basis = gell_mann_basis(16)
        write_gsic(construct_gsic(basis, feasible_t(basis).t), path)
        size, call, bound = 16 * 16**4, lambda: read_gsic(path), 1.75
    else:
        mat = _hermitian_state(256, seed=16)
        write_state(DensityMatrix.from_matrix(mat, 16, 2), path)
        size, bound = mat.nbytes, 1.1

        def call():
            with open(path, "rb") as f:
                _read_head(f)
                return _read_raw(f, mat.size)
    peak = _peak(call)
    assert peak <= bound * size, peak / size


@pytest.mark.parametrize("kind, d", [("set", 16), ("state", 16),
                                     ("set", 3), ("state", 3)],
                         ids=["set", "state", "set-d3", "state-d3"])
def test_reading_a_canonical_file_parses_only_its_head(tmp_path, kind, d):
    # a file as written hands json.loads only its head line, whatever its
    # size (1.5 kB at d = 3, 1.05 MB at d = 16), and reads back the
    # entries written
    path = tmp_path / "f.json"
    if kind == "set":
        basis = gell_mann_basis(d)
        written = construct_gsic(basis, feasible_t(basis).t)
        write_gsic(written, path)
        read, key = read_gsic, "operators"
    else:
        written = random_separable(d, 2, 4, seed=d)
        write_state(written, path)
        read, key = read_state, "matrix"
    with patch("json.loads", wraps=json.loads) as loads:
        value = getattr(read(path), key)
    assert max(len(c.args[0]) for c in loads.call_args_list) < 1024
    assert value.tobytes() == getattr(written, key).tobytes()


@pytest.mark.parametrize("kind", ["set", "state"])
def test_a_head_that_claims_a_huge_payload_fails_before_allocating(tmp_path,
                                                                   kind):
    # d = 65536 asks for 2**68 bytes over a 10-byte payload: the size is
    # checked against the head before the array is allocated, so the
    # read peaks far below one d = 16 stack
    path = tmp_path / "f.json"
    if kind == "set":
        read, what = read_gsic, "measurement"
        head = {"encoding": "c16le-raw", "d": 65536, "t": 0.0, "a": 0.0,
                "basis_id": "gellmann-d65536"}
    else:
        read, what = read_state, "state"
        head = {"encoding": "c16le-raw", "local_dim": 65536, "parties": 2}
    path.write_bytes(json.dumps(head).encode() + b"\n" + bytes(10))

    def call():
        with pytest.raises(ValueError, match=f"^malformed {what} file .*: "
                           f"payload holds 10 bytes, expected {2**68}$"):
            read(path)

    peak = _peak(call)
    assert peak <= 16 * 1024, peak


def test_building_a_set_peaks_near_three_stacks(set_file):
    # the basis, the operators and the gate's temporaries: 2.80 stacks,
    # 3.02 with a second slab buffer
    stack = 16 * 12**4
    argv = ["build", "--dim", "12", "--max-t", "--out", str(set_file)]
    with contextlib.redirect_stdout(io.StringIO()):
        peak = _peak(lambda: main(argv))
    assert peak <= 2.9 * stack, peak / stack


def test_reading_a_dense_state_peaks_at_three_matrices(tmp_path):
    # the peak is the gate: the matrix and its shifted copy, factored in
    # place, 2.03 matrices (3.01 when the factor took a third)
    mat = _hermitian_state(144, seed=12)
    path = tmp_path / "rho.json"
    write_state(DensityMatrix.from_matrix(mat, 12, 2), path)
    peak = _peak(lambda: read_state(path))
    assert peak <= 2.1 * mat.nbytes, peak / mat.nbytes


def test_an_exactly_hermitian_matrix_is_checked_with_two_copies():
    # one shifted copy, factored in place: 1.01 matrices (2.00 when the
    # factor took a second); no Hermitian part formed
    mat = _hermitian_state(256, seed=16)
    peak = _peak(lambda: DensityMatrix.from_matrix(mat, 16, 2))
    assert peak <= 1.1 * mat.nbytes, peak / mat.nbytes


@pytest.mark.parametrize("kind", ["npt", "ppt"])
def test_a_dense_ppt_test_peaks_at_its_partial_transpose_and_one_factor(kind):
    # the partial transpose, then either the Lanczos vectors (NPT
    # certificate) or the low-rank certificate's strip and factor (PPT
    # proof of this rank-4 one): 1.34 matrices each, and 2.01 for the
    # PPT kind when its proof copied the partial transpose into a slab
    # buffer; no more than from_matrix's gate on a matrix of that size
    if kind == "npt":
        rng = np.random.default_rng(16)
        z = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        mat = z @ z.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        rho = DensityMatrix.from_matrix(mat / np.trace(mat).real, 16, 2)
    else:
        rho = random_separable(16, 2, 4, seed=16)
    assert ppt_test(rho).npt == (kind == "npt")
    peak = _peak(lambda: ppt_test(rho))
    assert peak <= 1.4 * rho.matrix.nbytes, peak / rho.matrix.nbytes
