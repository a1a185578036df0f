"""The Lanczos propagator and the signed-permutation Pauli apply.

Oracles: the Kronecker-product matrix (``kron_oracle``), the site-by-site
``np.flip`` apply and the fixed-step RK4 integrator it drove
(``propagation_oracles``), and the cached dense eigendecomposition, which
stays the path up to ``core.EIGEN_SITE_LIMIT`` sites.
"""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from propagation_oracles import (
    apply_string_flip, apply_terms_flip, evolve_on_path, evolve_rk4, richardson_speed,
    stencil_acceleration,
)
import qcollapse
from qcollapse import cli, collapse, core, entanglement
from test_dense_path import DENSE_CASES, kron_oracle, random_state, tilted_product

STENCIL_OFFSETS = [0.02, 1e-4, -1e-4, 5e-5, -5e-5, 1e-3, 2e-3, -1e-3]


def count_lanczos_queries(monkeypatch, record):
    """Make every Lanczos basis ``core`` builds append ``record(basis, times)``
    for each query on it; returns the list."""
    calls = []

    class Counting(core._LanczosBasis):
        __slots__ = ()

        def propagate(self, times):
            calls.append(record(self, times))
            return super().propagate(times)

    monkeypatch.setattr(core, "_LanczosBasis", Counting)
    return calls


def random_vectors(rng, num_sites, columns):
    shape = (2**num_sites, columns)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def odd_y_sum(num_sites):
    # a complex Hermitian matrix: strings with one and three Y
    strings = [
        "X" + "Y" + "I" * (num_sites - 2),
        "Y" * 3 + "Z" * (num_sites - 3),
        "I" * (num_sites - 2) + "ZY",
        "Z" * num_sites,
        "X" * num_sites,
    ]
    return core.PauliTermSum(list(zip([0.7, -0.4, 1.1, 0.3, 0.5], strings)))


def plan_edge_sum():
    # what the apply plan special-cases: zero coefficients, identity strings,
    # flip masks shared by several strings, and strings with an odd number of Y
    return core.PauliTermSum([
        (0.0, "XYZII"), (0.8, "IIIII"), (-0.6, "XXIII"), (0.45, "YXZII"),
        (1.3, "ZIIZI"), (0.0, "IIIII"), (0.7, "IIYYZ"), (-0.25, "IIXYI"),
        (0.35, "XXIII"), (-0.9, "IZIIZ"),
    ])


# ---------------------------------------------------------------------------
# signed-permutation apply
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, h, real", DENSE_CASES, ids=[c[0] for c in DENSE_CASES])
def test_apply_terms_equals_kron_matrix_on_vectors_and_blocks(rng, name, h, real):
    block = random_vectors(rng, h.num_sites, 3)
    want = kron_oracle(h) @ block
    np.testing.assert_allclose(core._apply_terms(h, block), want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(core._apply_terms(h, block[:, 1]), want[:, 1], rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "h",
    [c[1] for c in DENSE_CASES] + [core.transverse_coupled(12), odd_y_sum(9), plan_edge_sum()],
    ids=[c[0] for c in DENSE_CASES] + ["transverse_coupled-13", "odd-y-9", "plan-edges-5"],
)
def test_apply_terms_equals_flip_route_bit_for_bit(rng, h):
    # strings with distinct flip masks are applied one by one, in term
    # order, with the flip route's bits; strings that share a mask have
    # their factors summed first, which reorders the additions, so those
    # operators agree to the roundoff of one sum over the terms
    masks = [core._string_masks(t.string)[0] for t in h.terms if t.coefficient != 0.0]
    grouped = len(set(masks)) < len(masks)
    block = random_vectors(rng, h.num_sites, 2)
    plan = h._apply_plan()
    got = core._apply_terms(h, block)
    assert h._plan is plan  # the operator's plan is reused, not rebuilt
    for j, col in enumerate(block.T):
        want = apply_terms_flip(h, col)
        if grouped:
            bound = len(masks) * np.finfo(float).eps * h.coefficient_scale() * np.max(np.abs(col))
            assert np.max(np.abs(got[:, j] - want)) <= bound
        else:
            assert np.array_equal(got[:, j], want)


def last_site_sum(num_sites):
    # flips that end on the last site: alone with Y/Z signs, after a run of
    # flips, with site 0 flipped too, and over every site; plus a diagonal.
    # One string per flip mask, so the per-term route gives the same bits
    n = num_sites
    strings = ["Z" * (n - 1) + "Y", "I" * (n - 1) + "X", "I" * (n - 2) + "XY",
               "Y" + "I" * (n - 2) + "X", "X" * n, "Z" * n]
    by_mask = {}
    for string in strings:
        if len(string) == n:
            by_mask.setdefault(core._string_masks(string)[0], string)
    coeffs = [0.7, -1.3, 0.45, 1.1, -0.8, 0.6]
    return core.PauliTermSum(list(zip(coeffs, by_mask.values())))


@pytest.mark.parametrize("num_sites", range(1, 14))
def test_last_site_flips_equal_the_flip_route_bit_for_bit(rng, num_sites):
    # a vector's last-site flip is added as two strided halves, a block's
    # through one reversed view: both give the per-term route's bits
    h = last_site_sum(num_sites)
    assert any(flip & 1 for flip, *_ in h._apply_plan())
    block = random_vectors(rng, num_sites, 2)
    got = core._apply_terms(h, block[:, 0].copy())
    assert np.array_equal(got, apply_terms_flip(h, block[:, 0]))
    assert np.array_equal(core._apply_terms(h, block)[:, 0], got)


def test_apply_plan_has_one_entry_per_flip_mask():
    # transverse_coupled: one diagonal of all the ZZ couplings and one
    # single-site flip per site; degenerate_ising: the diagonal alone
    for n in (2, 5, 13):
        plan = core.transverse_coupled(n - 1)._apply_plan()
        assert len(plan) == n + 1
        assert sorted(flip for flip, *_ in plan) == [0] + [1 << k for k in range(n)]
    (entry,) = core.degenerate_ising(6, g=0.7)._apply_plan()
    assert entry[0] == 0
    # no gather index is kept: every factor is a float or complex scalar or
    # array, and the views are slices
    for h in (core.transverse_coupled(9), odd_y_sum(9), plan_edge_sum(), core.degenerate_ising(4)):
        for flip, shape, reverse, factor in h._apply_plan():
            assert not np.issubdtype(np.asarray(factor).dtype, np.integer)
            assert all(isinstance(s, slice) for s in reverse)
            assert np.prod(shape) == h.dim


@pytest.mark.parametrize(
    "h", [core.transverse_coupled(9), odd_y_sum(9), plan_edge_sum(), core.degenerate_ising(5)],
    ids=["transverse_coupled-10", "odd-y-9", "plan-edges-5", "degenerate_ising-6"],
)
def test_block_apply_equals_its_columns_bit_for_bit(rng, h):
    block = random_vectors(rng, h.num_sites, 5)
    got = core._apply_terms(h, block)
    for j, col in enumerate(block.T):
        assert np.array_equal(got[:, j], core._apply_terms(h, col))
    # a block in Fortran order, and a strided column, give the same bits
    assert np.array_equal(core._apply_terms(h, np.asfortranarray(block)), got)
    assert np.array_equal(core._apply_terms(h, block[:, 2]), got[:, 2])


def test_diagonal_equals_kron_matrix_bit_for_bit():
    for h in (core.degenerate_ising(5, g=0.7),
              core.PauliTermSum([(0.3, "ZIZ"), (0.0, "IZI"), (-1.1, "IIZ"), (0.25, "III")]),
              core.PauliTermSum([(0.0, "ZZIZ"), (0.6, "IIII"), (-0.7, "ZIIZ"), (0.0, "IIII"),
                                 (1.2, "IZZI"), (0.4, "ZIIZ")])):
        assert np.array_equal(h.diagonal(), np.diag(kron_oracle(h)).real)
    # the dense matrix reads the same plan
    h = plan_edge_sum()
    assert np.array_equal(h.dense(), kron_oracle(h))


def test_apply_terms_skips_zero_coefficients():
    h = core.PauliTermSum([(0.0, "XY"), (2.0, "ZI")])
    v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    assert np.array_equal(core._apply_terms(h, v), 2.0 * np.array([1.0, 2.0, -3.0, -4.0]))


def flip_route_collapse_matrix(h, vec, full_register):
    cmat = np.zeros((2, 2), dtype=complex)
    for term in h.interaction_terms():
        string = ("I" if full_register else "") + term.string[1:]
        val = complex(np.vdot(vec, apply_string_flip(vec, string)))
        cmat += term.coefficient * val.real * core.PAULI_MATRICES[term.string[0]]
    return cmat


def test_collapse_operator_expectations_unchanged_bit_for_bit(rng):
    h = core.PauliTermSum(
        [(0.8, "ZZII"), (-0.3, "XIYZ"), (0.6, "YXXI"), (1.0, "IXII"), (0.45, "ZIIZ")]
    )
    env = rng.normal(size=8) + 1j * rng.normal(size=8)
    env /= np.linalg.norm(env)
    got = collapse.collapse_operator(h, env_state=env).matrix
    assert np.array_equal(got, flip_route_collapse_matrix(h, env, False))
    psi = random_state(rng, 4)
    got = collapse.collapse_operator(h, psi=psi).matrix
    assert np.array_equal(got, flip_route_collapse_matrix(h, psi.amplitudes, True))


# ---------------------------------------------------------------------------
# path selection
# ---------------------------------------------------------------------------


def test_auto_path_by_register_size():
    assert core._path(core.transverse_coupled(core.EIGEN_SITE_LIMIT - 1)) == "dense"
    assert core._path(core.transverse_coupled(core.EIGEN_SITE_LIMIT)) == "krylov"
    assert core._path(core.degenerate_ising(14)) == "diagonal"
    # the path is chosen by the operator alone; only the oracle names one
    for fn in (core.evolve, core._path):
        assert "method" not in inspect.signature(fn).parameters
    with pytest.raises(ValueError, match="unknown evolution method"):
        evolve_on_path(core.StateVector.uniform_plus(3), core.transverse_coupled(2), 0.1, "rk4")


def test_krylov_path_calls_the_apply_through_the_module(rng, monkeypatch):
    # the benchmark's layer tracer wraps core._apply_terms by name
    calls = []
    apply = core._apply_terms

    def counting(op, amps):
        calls.append(amps.shape)
        return apply(op, amps)

    monkeypatch.setattr(core, "_apply_terms", counting)
    h = core.transverse_coupled(9)
    core.evolve(random_state(rng, 10), h, 0.02)
    assert 4 <= len(calls) <= 20


# ---------------------------------------------------------------------------
# Lanczos against the dense path and the RK4 oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num_sites", [7, 8, 9, 10])
def test_krylov_matches_dense_path(rng, num_sites):
    h = core.transverse_coupled(num_sites - 1)
    psi = random_state(rng, num_sites)
    for t in (0.02, 1e-4, -0.15):
        dense = evolve_on_path(psi, h, t, "dense").amplitudes
        krylov = evolve_on_path(psi, h, t, "krylov").amplitudes
        assert np.max(np.abs(krylov - dense)) <= 1e-13
    dense = np.column_stack(
        [evolve_on_path(psi, h, t, "dense").amplitudes for t in STENCIL_OFFSETS]
    )
    basis = core._LanczosBasis(psi.amplitudes, h)
    krylov = core._krylov_times(psi.amplitudes, h, STENCIL_OFFSETS, basis)
    assert np.max(np.abs(krylov - dense)) <= 1e-13


def test_evolve_times_takes_all_offsets_from_one_basis(rng, monkeypatch):
    h = core.transverse_coupled(9)
    psi = random_state(rng, 10)
    bases = count_lanczos_queries(monkeypatch, lambda basis, times: times.size)
    out = core.evolve_times(psi, h, STENCIL_OFFSETS)
    assert bases == [len(STENCIL_OFFSETS)]
    dense = np.column_stack(
        [evolve_on_path(psi, h, t, "dense").amplitudes for t in STENCIL_OFFSETS]
    )
    assert np.max(np.abs(out - dense)) <= 1e-13


def test_long_evolution_substeps_and_matches_dense_path(rng, monkeypatch):
    h = core.transverse_coupled(9)
    psi = random_state(rng, 10)
    # a random state's basis does not converge at coefficient_scale() * 3
    # = 57 within 40 vectors: after that one query fails, the step is split
    # into substeps of reach at most 4, the first on the same basis
    bases = count_lanczos_queries(monkeypatch, lambda basis, times: float(times[0]))
    krylov = evolve_on_path(psi, h, 3.0, "krylov").amplitudes
    steps = math.ceil(h.coefficient_scale() * 3.0 / 4.0)
    assert bases == pytest.approx([3.0] + [3.0 / steps] * steps, rel=1e-15)
    dense = evolve_on_path(psi, h, 3.0, "dense").amplitudes
    assert np.max(np.abs(krylov - dense)) <= 1e-13
    # when the query fails, every offset is substepped one by one
    bases.clear()
    out = core.evolve_times(psi, h, [-3.0, 0.0, 0.5])
    assert len(bases) == 1 + steps + math.ceil(h.coefficient_scale() * 0.5 / 4.0)
    for j, t in enumerate([-3.0, 0.0, 0.5]):
        dense = evolve_on_path(psi, h, t, "dense").amplitudes
        assert np.max(np.abs(out[:, j] - dense)) <= 1e-13


def test_long_evolution_in_a_small_invariant_subspace_takes_one_basis(monkeypatch):
    # a product state whose environment spins are alike stays symmetric
    # under permuting them: its basis breaks down at the dimension 2(N+1) =
    # 20 of that subspace and converges at any offset, so a step of
    # coefficient_scale() * 3 = 57 is one query, with no substep
    h = core.transverse_coupled(9)
    psi = tilted_product(10)
    bases = count_lanczos_queries(monkeypatch, lambda basis, times: basis)
    krylov = core.evolve(psi, h, 3.0).amplitudes
    (basis,) = bases
    assert len(basis.betas) <= 25
    dense = evolve_on_path(psi, h, 3.0, "dense").amplitudes
    assert np.max(np.abs(krylov - dense)) <= 1e-13


@pytest.mark.parametrize("scale", [1e-3, 30.0, 1e3])
def test_krylov_stopping_test_does_not_depend_on_operator_scale(rng, scale):
    # the same physics as transverse_coupled(9) with H -> scale * H, t -> t / scale
    base = core.transverse_coupled(9)
    h = core.build_hamiltonian(
        "custom", terms=[(scale * t.coefficient, t.string) for t in base.terms]
    )
    psi = random_state(rng, 10)
    for t in (0.02, 0.3, 3.0):
        krylov = evolve_on_path(psi, h, t / scale, "krylov").amplitudes
        dense = evolve_on_path(psi, h, t / scale, "dense").amplitudes
        assert np.max(np.abs(krylov - dense)) <= 1e-13
    offsets = [t / scale for t in STENCIL_OFFSETS]
    dense = np.column_stack(
        [evolve_on_path(psi, h, t, "dense").amplitudes for t in offsets]
    )
    assert np.max(np.abs(core.evolve_times(psi, h, offsets) - dense)) <= 1e-13


def test_krylov_matches_rk4_oracle_above_dense_limit(rng):
    h = core.transverse_coupled(12)
    psi = random_state(rng, 13)
    for t in (0.02, -0.01):
        krylov = core.evolve(psi, h, t).amplitudes
        assert np.max(np.abs(krylov - evolve_rk4(psi.amplitudes, h, t))) <= 1e-11


def test_krylov_on_odd_y_complex_operator(rng):
    h = odd_y_sum(10)
    assert h.dense().dtype == np.complex128
    assert core._path(h) == "krylov"
    psi = random_state(rng, 10)
    for t in (0.02, -0.7):
        krylov = core.evolve(psi, h, t).amplitudes
        dense = evolve_on_path(psi, h, t, "dense").amplitudes
        assert np.max(np.abs(krylov - dense)) <= 1e-13


def test_zero_columns_and_zero_vectors_map_to_zero(rng):
    h = core.transverse_coupled(9)
    block = random_vectors(rng, 10, 3)
    block /= np.linalg.norm(block, axis=0)
    block[:, 1] = 0.0
    out = core.Propagator(block, h).propagate([0.05])[..., 0]
    assert np.array_equal(out[:, 1], np.zeros(h.dim))
    for j in (0, 2):
        dense = evolve_on_path(core.StateVector(block[:, j]), h, 0.05, "dense").amplitudes
        assert np.max(np.abs(out[:, j] - dense)) <= 1e-13
    zero_amps = np.zeros(h.dim, dtype=complex)
    zero = core._krylov_times(zero_amps, h, [0.1, -2.0], core._LanczosBasis(zero_amps, h))
    assert zero.shape == (h.dim, 2) and not np.any(zero)


def test_zero_operator_leaves_the_state_alone(rng):
    h = core.PauliTermSum([], num_sites=10)
    psi = random_state(rng, 10)
    out = evolve_on_path(psi, h, 0.3, "krylov").amplitudes
    assert np.max(np.abs(out - psi.amplitudes)) <= 1e-15


# ---------------------------------------------------------------------------
# stencils and the trace on the Krylov path
# ---------------------------------------------------------------------------


def dense_entropy(psi, h, t):
    return entanglement.state_entropy(evolve_on_path(psi, h, t, "dense"))


def test_stencils_match_dense_per_offset_route_at_ten_sites(rng):
    # the oracle stencils on the Lanczos path against the dense path: 1e-9
    # relative, or a few roundoffs of the entropy over the step where the
    # derivative itself is tiny (a random state is nearly maximally mixed)
    h = core.transverse_coupled(9)
    fd, delta = 1e-4, entanglement.DEFAULT_ACCEL_STEP
    eps = np.finfo(float).eps
    for psi in (random_state(rng, 10), core.evolve(tilted_product(10), h, 0.3)):
        d_full = (dense_entropy(psi, h, fd) - dense_entropy(psi, h, -fd)) / (2.0 * fd)
        d_half = (dense_entropy(psi, h, fd / 2) - dense_entropy(psi, h, -fd / 2)) / fd
        want = (4.0 * d_half - d_full) / 3.0
        speed = richardson_speed(psi, h, fd)
        assert speed == pytest.approx(want, rel=1e-9, abs=8 * eps / fd)
        e0 = entanglement.state_entropy(psi)
        want = (dense_entropy(psi, h, delta) - 2.0 * e0 + dense_entropy(psi, h, -delta)) / delta**2
        accel = stencil_acceleration(psi, h, delta)
        assert accel == pytest.approx(want, rel=1e-9, abs=8 * eps / delta**2)


def test_trace_speed_matches_analytic_speed_along_ten_site_run():
    # the trace-dense benchmark workload: 51 samples at 10 sites
    h = core.transverse_coupled(9)
    state = tilted_product(10, math.pi / 2 + 0.03, math.pi / 2 - 0.04)
    dt = 0.02
    trace = entanglement.compute_trace(state, h, t_max=1.0, dt=dt)
    assert len(trace) == 51
    worst = 0.0
    for k in range(len(trace)):
        analytic = entanglement.entangling_speed(state, h)
        worst = max(worst, abs(trace.epsilon_dot[k] - analytic))
        state = core.evolve(state, h, dt)
    assert worst <= 1e-10


def _pythonpath():
    """PYTHONPATH for a subprocess that imports this checkout's qcollapse."""
    src = str(Path(qcollapse.__file__).resolve().parents[1])
    return os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def test_entropy_bits_do_not_depend_on_blas_threads():
    # a 16-site state normalized by a fixed-order sum, so only the entropy's
    # own reduction could bring in the BLAS thread count: its Gram entries
    # are row sums (`entanglement._gram`), not `np.vdot`, which OpenBLAS
    # splits across threads at this size
    script = (
        "import numpy as np\n"
        "from qcollapse import entanglement\n"
        "rng = np.random.default_rng(7)\n"
        "v = rng.normal(size=2**16) + 1j * rng.normal(size=2**16)\n"
        "v /= np.sqrt(np.square(v.view(np.float64)).sum())\n"
        "print(repr(entanglement.state_entropy(v)))\n"
    )
    printed = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=_pythonpath()),
            check=True, capture_output=True, text=True, timeout=120,
        ).stdout
        for threads in ("1", "2")
    ]
    assert 0.69 < float(printed[0]) < math.log(2.0)
    assert printed[0] == printed[1]


def test_trace_runs_under_a_profile_hook(tmp_path):
    # a profile hook is handed each C call's bound method, a reference that
    # makes numpy refuse to resize an array in place; the Lanczos basis
    # (from 8 sites up) must grow anyway: under the hook main returns 0 and
    # writes the bytes of a plain run.  `python -m cProfile` would not do
    # as the check: it exits 0 whatever main returns
    script = (
        "import sys\n"
        "from qcollapse import cli\n"
        "if sys.argv[1] == 'hook':\n"
        "    sys.setprofile(lambda frame, event, arg: None)\n"
        "code = cli.main(['trace', '--set', 'n_list=7,9', '--set', 't_max=0.2',\n"
        "                 '--out', sys.argv[2]])\n"
        "sys.setprofile(None)\n"
        "sys.exit(code)\n"
    )
    payloads = []
    for mode in ("plain", "hook"):
        out = tmp_path / mode
        run = subprocess.run(
            [sys.executable, "-c", script, mode, str(out)],
            env=dict(os.environ, PYTHONPATH=_pythonpath()),
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        payloads.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(payloads[0]) == ["trace_n7.csv", "trace_n9.csv", "trace_summary.csv"]
    assert payloads[0] == payloads[1]


def test_trace_bytes_do_not_depend_on_blas_threads(tmp_path):
    # holds at 8, 9, 10 and 13 sites; at 16 sites OpenBLAS splits the
    # Lanczos projections and the norm guards across threads and the digits
    # move (the entropy itself does not: see the test above).  8 and 9
    # sites run on the Lanczos path since EIGEN_SITE_LIMIT went to 7: on the
    # dense path `np.linalg.eigh` returned eigenvectors that differ between
    # thread counts inside degenerate eigenspaces there.  The dense path at
    # 7 sites or fewer gave the same bytes at 1 and 2 threads on this
    # OpenBLAS build, which does not thread eigh calls that small
    pythonpath = _pythonpath()
    commands = (
        ["trace", "--set", "n_list=7,8,9,12", "--set", "t_max=0.1"],
        # collapse events: the closed-form speed decides each crossing
        ["trajectory", "--set", "n=9", "--set", "threshold=0.5",
         "--set", "basis_method=collapse_operator", "--set", "t_max=0.2"],
        # a basis scan: its tensors and coefficients are fixed-order sums
        ["trajectory", "--set", "n=9", "--set", "basis_method=scan",
         "--set", "threshold=0.5", "--set", "t_max=0.1"],
        # a 9-site scan trajectory
        ["trajectory", "--set", "n=8", "--set", "basis_method=scan",
         "--set", "threshold=0.5", "--set", "t_max=0.3", "--seed", "5"],
    )
    payloads = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        for k, args in enumerate(commands):
            subprocess.run(
                [sys.executable, "-m", "qcollapse.cli", *args, "--out", str(out / str(k))],
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath),
                check=True, stdout=subprocess.DEVNULL, timeout=120,
            )
        payloads.append({
            f"{p.parent.name}/{p.name}": p.read_bytes() for p in sorted(out.glob("*/*"))
        })
    assert sorted(payloads[0]) == [
        "0/trace_n12.csv", "0/trace_n7.csv", "0/trace_n8.csv", "0/trace_n9.csv",
        "0/trace_summary.csv",
        "1/trajectory_events.jsonl", "1/trajectory_trace.csv",
        "2/trajectory_events.jsonl", "2/trajectory_trace.csv",
        "3/trajectory_events.jsonl", "3/trajectory_trace.csv",
    ]
    for k in (1, 2, 3):
        assert payloads[0][f"{k}/trajectory_events.jsonl"]
    assert payloads[0] == payloads[1]


# ---------------------------------------------------------------------------
# non-convergence
# ---------------------------------------------------------------------------


def test_krylov_non_convergence_raises_integration_error(rng, monkeypatch):
    monkeypatch.setattr(core, "_KRYLOV_MAX_VECTORS", 2)
    with pytest.raises(core.IntegrationError, match="Krylov step did not converge"):
        core.evolve(random_state(rng, 10), core.transverse_coupled(9), 0.02)


def test_krylov_non_convergence_exits_3_from_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(core, "_KRYLOV_MAX_VECTORS", 2)
    code = cli.main([
        "trace", "--set", "n_list=9", "--set", "t_max=0.04", "--out", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "Krylov step" in capsys.readouterr().err
