"""Boundary classification, Ancona ratios, and Martin convergence."""
import math
from types import SimpleNamespace

import numpy as np
import pytest

from relwalk import (FreeProductEngine, SequenceSpec, TabooContext, ancona_ratio,
                     ball_elements, load_config, martin_convergence,
                     separation_experiment)
from relwalk.classify import _Pcg64, classify, sample_ancona_pairs
from relwalk.cli import _ANCONA_RMAX, _TRANSITIONS
from relwalk.config import DEFAULT_STATE_CAP
from relwalk.errors import BoundedSequenceError, ParseError
from relwalk.perron import BoundaryPointU, level_set_point, minimize_lambda
from relwalk.groups import Coset

from conftest import config_path, count_calls, cut_by, extrapolated_ratio_deviation


def test_template_exponent_parsing(z2_cfg):
    g = z2_cfg.group
    spec = SequenceSpec(name="diag", templates=("a^n*b^n",), start=1, stop=4)
    assert spec.element(g, 3) == g.word("a^3*b^3")
    affine = SequenceSpec(name="odd", templates=("a^2n+1",), start=0, stop=3)
    assert affine.element(g, 2) == g.word("a^5")
    const = SequenceSpec(name="mix", templates=("t*a^n",), start=1, stop=4)
    assert const.element(g, 1) == g.word("t*a")
    with pytest.raises(ParseError):
        SequenceSpec(name="bad", templates=("a^n^2",), start=1, stop=3).element(g, 1)
    word = SequenceSpec(name="word", templates=("(a*t)^n*b",), start=1, stop=3)
    assert word.element(g, 2) == g.word("a*t*a*t*b")
    with pytest.raises(ParseError) as nested:
        SequenceSpec(name="nested", templates=("((a*t)^2*b)^n",), start=1, stop=3).element(g, 1)
    assert "'((a*t)^2*b)^n'" in str(nested.value) and "nest" in str(nested.value)


def test_alternate_mode_cycles_templates(z2_cfg):
    g = z2_cfg.group
    spec = SequenceSpec(name="alt", templates=("a^n", "b^n"), start=1, stop=6)
    els = spec.elements(g)
    assert els[0] == g.word("b^1")
    assert els[1] == g.word("a^2")


def test_diagonal_sequence_is_parabolic_with_unit_diagonal_direction(z2_cfg):
    g = z2_cfg.group
    spec = SequenceSpec(name="diag", templates=("a^n*b^n",), start=1, stop=10)
    res = classify(g, spec.elements(g), parabolic=[0])
    assert res.tag == "Parabolic"
    assert res.coset is not None and res.coset.factor == 0
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(res.direction, (s, s), atol=1e-9)


def test_mixed_syllable_sequence_is_conical(z2_cfg):
    g = z2_cfg.group
    spec = SequenceSpec(name="at", templates=("a*t",), start=1, stop=10)
    seq = [g.word("a*t") ** n for n in range(1, 11)]
    res = classify(g, seq, parabolic=[0])
    assert res.tag == "Conical"


def test_axis_swapping_sequence_stays_unresolved(z2_cfg):
    g = z2_cfg.group
    spec = SequenceSpec(name="swap", templates=("a^n", "b^n"), start=1, stop=12)
    res = classify(g, spec.elements(g), parabolic=[0])
    assert res.tag == "Unresolved"


def test_second_factor_ray_is_conical_relative_to_first(z2_cfg):
    g = z2_cfg.group
    seq = [g.word(f"t^{n}") for n in range(1, 11)]
    res = classify(g, seq, parabolic=[0])
    assert res.tag == "Conical"


def test_translated_sequence_lands_in_translated_coset(z2_cfg):
    g = z2_cfg.group
    spec = SequenceSpec(name="tdiag", templates=("t*a^n*b^n",), start=1, stop=10)
    res = classify(g, spec.elements(g), parabolic=[0])
    assert res.tag == "Parabolic"
    assert res.coset == Coset.of(g.word("t"), 0)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(res.direction, (s, s), atol=1e-9)


def test_representative_invariance_for_the_diagonal(z2_cfg):
    # Translating by a^-1 moves the identity coset's chart by a's lattice part,
    # as choosing a for its representative would.
    g = z2_cfg.group
    spec = SequenceSpec(name="diag", templates=("a^n*b^n",), start=1, stop=14)
    base = classify(g, spec.elements(g), [0])
    shifted = classify(g, [g.word("a^-1") * x for x in spec.elements(g)], [0])
    assert shifted.tag == base.tag == "Parabolic"
    assert shifted.coset == base.coset
    assert np.linalg.norm(np.subtract(shifted.direction, base.direction)) < 0.05


def test_bounded_sequences_are_rejected(z2_cfg):
    g = z2_cfg.group
    seq = [g.word("a"), g.identity, g.word("a"), g.identity,
           g.word("a"), g.identity]
    with pytest.raises(BoundedSequenceError):
        classify(g, seq, parabolic=[0])


def test_ancona_ratio_conventions_and_tree_values(f2_engine, f2_cfg):
    g = f2_cfg.group
    eng = f2_engine
    x, z = g.word("a^-1"), g.word("a")
    assert ancona_ratio([TabooContext(eng, [g.identity])], [(x, z)]) == [(0.0,)]
    ((off_axis,),) = ancona_ratio([TabooContext(eng, [g.word("b")])],
                                  [(g.identity, g.word("a"))])
    assert abs(off_axis - 8.0 / 9.0) < 1e-10
    assert ancona_ratio([TabooContext(eng, list(ball_elements(g, 2, DEFAULT_STATE_CAP)))], [(x, z)]) == [(0.0,)]


def test_ancona_ratio_evaluation_count(z2_cfg, monkeypatch):
    # a^6 -> a^-6 passes e in the Z^2 plane, where no single vertex is cut,
    # so the radius-4 taboo block of 609^2 entries is built.  It is assembled
    # in numpy, not by one scalar green call per entry, on a fresh engine
    # and context.
    g = z2_cfg.group
    eng = FreeProductEngine(g, z2_cfg.measure, radius=z2_cfg.radius)
    ball = list(ball_elements(g, 4, DEFAULT_STATE_CAP))
    x, z = g.word("a^6"), g.word("a^-6")
    assert g.identity in ball and not cut_by(set(ball), eng.mu, x, z)
    shapes = []
    inner_block = FreeProductEngine.green_matrix

    def recorded(self, xs, ys):
        shapes.append((len(xs), len(ys)))
        return inner_block(self, xs, ys)

    monkeypatch.setattr(FreeProductEngine, "green_matrix", recorded)
    calls = count_calls(monkeypatch, FreeProductEngine, "green")
    ((rho,),) = ancona_ratio([TabooContext(eng, ball)], [(x, z)])
    assert 0.0 < rho < 1.0
    assert (609, 609) in shapes
    assert calls[0] < 2000


@pytest.mark.parametrize("source, name, first_cut", [
    ("configs", "z2_free_z", 2), ("workloads", "z2_chart", 2),
    ("configs", "f2_over_a", 0), ("workloads", "f2_over_a", 0),
])
def test_cut_balls_read_exact_zeros_and_no_ratio_needs_the_floor(source, name, first_cut,
                                                                 request, monkeypatch):
    """On the ancona stage's pairs around a transition midpoint e, B_R(e) for
    R >= first_cut holds a cut vertex of every geodesic: a syllable junction
    in the Z^2 walks, e itself inside an a segment of a line in F2.  Those
    balls give 0.0 exactly and build no green_matrix block.

    ancona_ratio also reports ratios below 1e-12 as 0, for cut sets that no
    single vertex forms (rank-1 steps of length 2, say).  On the shipped
    configs and the benchmark's seeded walks every cut is one vertex, so no
    raw ratio G_A(x, z)/G(x, z) of any ball B_0..B_4 falls in (0, 1e-12)."""
    cfg = (load_config(config_path(f"{name}.json")) if source == "configs"
           else request.getfixturevalue("workload_cfgs")[name])
    eng = FreeProductEngine(cfg.group, cfg.measure, radius=cfg.radius)
    pairs = sample_ancona_pairs(cfg.group, cfg.parabolic, cfg.seed,
                                cfg.tolerances["ancona_samples"], _TRANSITIONS)
    greens = [eng.green(x, z) for x, z in pairs]
    raw = []
    for r in range(_ANCONA_RMAX + 1):
        taboo = TabooContext(eng, list(ball_elements(cfg.group, r, DEFAULT_STATE_CAP)))
        blocks = count_calls(monkeypatch, FreeProductEngine, "green_matrix")
        values = taboo.value(pairs)
        monkeypatch.undo()
        if r >= first_cut:
            assert values == [0.0] * len(pairs) and blocks[0] == 0
        raw += [v / g for v, g in zip(values, greens)]
    assert [rho for rho in raw if rho != 0.0 and rho < 1e-12] == []


@pytest.mark.parametrize("cfg_name, count", [("f2a_cfg", 400), ("z2_cfg", 200)],
                         ids=["f2_over_a", "z2"])
def test_ancona_denominators_equal_scalar_green_bit_for_bit(cfg_name, count, request,
                                                            monkeypatch):
    """ancona_ratio reads every G(x, z) in one green_pairs call of one entry
    per pair on a fresh engine, and no block; each equals the scalar
    green(x, z) of another fresh engine, and divides its own pair's value."""
    cfg = request.getfixturevalue(cfg_name)
    pairs = sample_ancona_pairs(cfg.group, cfg.parabolic, cfg.seed, count, _TRANSITIONS)

    def fresh():
        return FreeProductEngine(cfg.group, cfg.measure, radius=cfg.radius)

    scalar = fresh()
    greens = [scalar.green(x, z) for x, z in pairs]
    reads = []
    inner = FreeProductEngine.green_pairs

    def recorded(self, X, Y):
        reads.append(inner(self, X, Y))
        return reads[-1]

    monkeypatch.setattr(FreeProductEngine, "green_pairs", recorded)
    blocks = count_calls(monkeypatch, FreeProductEngine, "green_matrix")
    # A stand-in context whose values are half the scalar Greens and which reads
    # no Green value of its own, so only denominators are recorded.
    half = SimpleNamespace(engine=fresh(), value=lambda ps: [0.5 * g for g in greens])
    assert ancona_ratio([half], pairs) == [(0.5,)] * count
    monkeypatch.undo()
    assert blocks[0] == 0 and [r.shape for r in reads] == [(count,)]
    assert [g.hex() for g in reads[0].tolist()] == [g.hex() for g in greens]


def test_ancona_generator_matches_numpy_default_rng_draw_for_draw():
    """_Pcg64(seed).integers(lo, hi) is np.random.default_rng(seed).integers(lo, hi),
    the reference, over seeds of one to five 32-bit words and ranges of width
    1 to 6 from negative and positive lo.  A width-1 draw returns lo and
    consumes nothing, so the draw after it still matches.  So do ranges just
    above 3 * 2**30, which reject about a quarter of their draws."""
    for seed in [*range(200), 2**32, 2**64 - 1, 2**64, 2**128 + 12345]:
        ours, ref = _Pcg64(seed), np.random.default_rng(seed)
        for k in range(60):
            lo, width = k % 7 - 3, 1 + 5 * k % 6  # each width-1 draw is followed by a wider one
            assert (ours.integers(lo, lo + width)
                    == int(ref.integers(lo, lo + width))), (seed, k, lo, width)
        for k in range(20):
            assert ours.integers(-k, 3 << 30) == int(ref.integers(-k, 3 << 30)), (seed, k)


@pytest.mark.parametrize("source, name", [
    ("configs", "z2_free_z"), ("configs", "f2_over_a"), ("workloads", "z2_chart")])
def test_ancona_pairs_are_those_of_numpys_generator(source, name, request, monkeypatch):
    """sample_ancona_pairs returns exactly the pairs it returned when it drew
    from np.random.default_rng(seed), on the shipped configs and the seeded z2 walk."""
    cfg = (load_config(config_path(f"{name}.json")) if source == "configs"
           else request.getfixturevalue("workload_cfgs")[name])
    args = (cfg.group, cfg.parabolic, cfg.seed, cfg.tolerances["ancona_samples"], _TRANSITIONS)
    ours = sample_ancona_pairs(*args)

    def numpy_generator(seed):
        rng = np.random.default_rng(seed)
        return SimpleNamespace(integers=lambda lo, hi: int(rng.integers(lo, hi)))

    monkeypatch.setattr("relwalk.classify._Pcg64", numpy_generator)
    assert ours == sample_ancona_pairs(*args)


def test_martin_convergence_along_a_free_factor_ray(f2_engine, f2_cfg):
    g = f2_cfg.group
    seq = [g.word(f"a^{n}") for n in range(3, 9)]
    pts = [g.identity, g.word("a"), g.word("a^2"), g.word("b")]
    rep = martin_convergence(f2_engine, seq, pts, ns=list(range(3, 9)),
                             boundary=None, coset=None)
    assert rep.ns == list(range(3, 9)) and rep.kernels.shape == (6, 4)
    assert rep.kernels[0, 0] == 1.0
    assert abs(rep.kernels[-1, 1] - 3.0) < 1e-12
    assert rep.ratios is None and rep.max_ratio_deviation is None
    deltas = [d for _, d in rep.cauchy_deltas]
    assert deltas[-1] <= deltas[0]
    assert deltas[-1] < 1e-9


def test_martin_ratio_deviation_against_boundary_prediction(z2_engine, z2_cfg, z2_chain_eta0):
    g = z2_cfg.group
    s = 1.0 / math.sqrt(2.0)
    bp = level_set_point(z2_chain_eta0, (s, s))
    coset = Coset.of(g.identity, 0)
    seq = [g.word(f"a^{n}*b^{n}") for n in (6, 8, 10)]
    pts = [g.identity, g.word("a"), g.word("b"), g.word("a*b")]
    rep = martin_convergence(z2_engine, seq, pts, ns=[6, 8, 10],
                             boundary=bp, coset=coset)
    assert rep.max_ratio_deviation is not None
    assert rep.pairs.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    assert rep.ratios.shape == (3, 6)
    last = [abs(rep.kernels[-1, i] / rep.kernels[-1, j] - p) / p
            for (i, j), p in zip(rep.pairs.tolist(), rep.predicted.tolist())]
    assert rep.max_ratio_deviation == max(last)


def test_separation_certificate_for_the_free_group_chain(f2a_chain):
    rep = separation_experiment(f2a_chain)
    assert rep.ns == list(range(1, 13))
    assert rep.certified
    for n, d in zip(rep.ns, rep.decay):
        assert abs(d - 3.0 ** (-n)) < 1e-9
    for n, gmin in zip(rep.ns, rep.grid_min):
        assert abs(gmin - 3.0 ** n) < 3.0 ** n * 1e-9
    assert rep.u1[0] == pytest.approx(math.log(3.0), abs=1e-9)


def test_kernel_ratio_correction_shrinks_like_one_over_n(z2_engine, z2_cfg, z2_chain_eta0):
    g = z2_cfg.group
    s = 1.0 / math.sqrt(2.0)
    bp = level_set_point(z2_chain_eta0, (s, s))
    coset = Coset.of(g.identity, 0)
    pts = [g.identity, g.word("a"), g.word("b^-1")]
    devs = {}
    for n in (6, 12):
        rep = martin_convergence(z2_engine, [g.word(f"a^{n}*b^{n}")], pts,
                                 ns=[n], boundary=bp, coset=coset)
        devs[n] = rep.max_ratio_deviation
    assert devs[12] < devs[6]
    assert 1.4 < devs[6] / devs[12] < 2.6


@pytest.mark.parametrize("degrees", [44.0, 46.0])
def test_kernel_ratio_limit_rejects_off_diagonal_point(z2_engine, z2_cfg, z2_chain_eta0,
                                                       degrees):
    # A10's extrapolated check, fed the level-set point of a direction 1 degree
    # off the a^n b^n diagonal, must exceed its 5% bound.
    g = z2_cfg.group
    t = math.radians(degrees)
    bp = level_set_point(z2_chain_eta0, (math.cos(t), math.sin(t)))
    coset = Coset.of(g.identity, 0)
    pts = [g.word(f"a^{z1}*b^{z2}") if (z1, z2) != (0, 0) else g.identity
           for z1 in range(-3, 4) for z2 in range(-3, 4)
           if abs(z1) + abs(z2) <= 3]
    ns = list(range(8, 13))
    rep = martin_convergence(z2_engine, [g.word(f"a^{n}*b^{n}") for n in ns], pts,
                             ns=ns, boundary=bp, coset=coset)
    worst, _ = extrapolated_ratio_deviation(rep)
    assert worst > 0.05
