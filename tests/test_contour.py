"""Contour construction and quadrature accuracy."""

import numpy as np
import pytest

from weylinv import (
    Contour,
    ContourNode,
    DimensionMismatchError,
    DomainError,
    SpectralPoint,
    build_contour,
    cauchy_transform,
    coarsen_weyl_data,
    integrate,
    lambda_to_point,
    model_weyl,
)
from weylinv.contour import (_cut_sides, _is_mirror, _mirror_fill,
                             _param_weights, coarsen_contour, extension_nodes)
from weylinv.inverse import WeylData


def small_contour(**kw):
    args = dict(r0=2.0, R=100.0, n_cut=64, n_circle=64, delta=0.0)
    args.update(kw)
    return build_contour(**args)


def _cut_sides_per_node(sig, h, delta):
    """Both cut sides built one node at a time, each side on its own
    through lambda_to_point and its own weights (the reference for the
    mirrored array layout of _cut_sides)."""
    rhos, ws = [], []
    for sheet, sg, shift, dlam in (("upper", sig[::-1], 1j * delta, -2.0),
                                   ("lower", sig, -1j * delta, 2.0)):
        rhos += [lambda_to_point(lam, sheet).rho for lam in sg ** 2 + shift]
        ws.append(_param_weights(dlam * sg, h))
    return np.array(rhos), np.concatenate(ws)


def _circle_per_node(r0, delta, n_circle):
    """The circle's rhos and weights, each node's rho through
    lambda_to_point on its own: off the real axis the root with Im rho > 0,
    on it (theta = pi, or theta = 0 and 2 pi at delta = 0) the sheet of
    the half the node is in (the reference for build_contour's mirrored
    layout of the roots)."""
    theta0 = np.arcsin(min(delta / r0, 1.0)) if delta > 0 else 0.0
    theta = np.linspace(theta0, 2.0 * np.pi - theta0, n_circle)
    half = r0 * np.exp(1j * theta[:(n_circle + 1) // 2])
    if n_circle % 2:
        half[-1] = -r0
    lams = _mirror_per_entry(half, n_circle, negate=False)
    rhos = [lambda_to_point(lam, "upper" if k < n_circle // 2 else "lower").rho
            for k, lam in enumerate(lams)]
    return np.array(rhos), _param_weights(1j * lams, theta[1] - theta[0])


class TestConstruction:
    def test_node_count_and_order(self):
        c = small_contour()
        assert len(c) == 64 + 2 * 64
        segs = c.segments
        assert segs[:64] == ("upper_cut",) * 64
        assert segs[64:128] == ("circle",) * 64
        assert segs[128:] == ("lower_cut",) * 64

    def test_cut_uniform_in_sqrt(self):
        c = small_contour()
        sig = np.sqrt(np.abs(c.lambdas[:64]))
        assert np.allclose(np.diff(sig), np.diff(sig)[0])

    def test_sheets_at_zero_offset(self):
        c = small_contour()
        rhos = c.rhos
        assert np.all(rhos[:64].real > 0)       # upper side
        assert np.all(rhos[128:].real < 0)      # lower side

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            build_contour(r0=3.0, R=2.0)
        # and a Contour built directly
        c = small_contour()
        for r0 in (100.0, 150.0):
            with pytest.raises(ValueError, match="0 < r0 < R"):
                Contour(r0=r0, R=c.R, delta=c.delta, nodes=c.nodes)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            build_contour(r0=1.0, R=10.0, delta=-0.1)
        c = small_contour()
        with pytest.raises(ValueError, match="delta must be >= 0"):
            Contour(r0=c.r0, R=c.R, delta=-0.1, nodes=c.nodes)

    @pytest.mark.parametrize("n_circle, n_cut", [(31, 32), (32, 31), (64, 8)])
    def test_rejects_too_few_nodes(self, n_circle, n_cut):
        with pytest.raises(ValueError, match="n_circle >= 32 and n_cut >= 32"):
            build_contour(r0=2.0, R=100.0, n_circle=n_circle, n_cut=n_cut)

    def test_rejects_zero_weight_node(self):
        with pytest.raises(ValueError):
            ContourNode(point=SpectralPoint(1.0), weight=0.0,
                        segment="circle")

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_rejects_node_outside_the_cut_disk(self, delta):
        # the cut's outer ends R +- i delta are the farthest nodes; one
        # just beyond |R + i delta| is a DomainError (a ValueError)
        c = build_contour(r0=2.0, R=100.0, n_cut=32, n_circle=32, delta=delta)
        lams = c.lambdas
        assert np.abs(lams).max() == pytest.approx(abs(100.0 + 1j * delta))
        for k, rho in ((0, c.rhos[0] * (1 + 1e-6)), (40, 30j)):
            nodes = list(c.nodes)
            nodes[k] = ContourNode(point=SpectralPoint(rho), weight=1.0,
                                   segment=nodes[k].segment)
            with pytest.raises(DomainError, match=f"contour node {k} "):
                Contour(r0=c.r0, R=c.R, delta=c.delta, nodes=tuple(nodes))

    @pytest.mark.parametrize("delta", [0.0, None])
    @pytest.mark.parametrize("n_circle", [32, 33, 64, 65])
    def test_reversed_contour_is_its_mirror_image(self, n_circle, delta):
        # lambda -> conj lambda (rho -> -conj rho) maps every node onto the
        # node at the mirrored position, bit for bit, and w onto -conj w;
        # _is_mirror accepts the layout, and the extension's too
        c = build_contour(r0=2.0, R=100.0, n_cut=32, n_circle=n_circle,
                          delta=delta)
        assert np.array_equal(c.lambdas[::-1], c.lambdas.conj())
        assert np.array_equal(c.rhos[::-1], -c.rhos.conj())
        assert np.array_equal(c.weights[::-1], -c.weights.conj())
        assert _is_mirror(c.lambdas)
        assert _is_mirror(c.rhos, negate=True)
        assert _is_mirror(c.weights, negate=True)
        rhos, w = extension_nodes(c, 7.0)
        assert np.array_equal(rhos[::-1], -rhos.conj())
        assert np.array_equal(w[::-1], -w.conj())
        assert _is_mirror(rhos, negate=True) and _is_mirror(w, negate=True)

    @pytest.mark.parametrize("delta", [0.0, None])
    @pytest.mark.parametrize("n_circle", [32, 33, 64, 65])
    def test_circle_nodes_stay_on_their_angles(self, n_circle, delta):
        # the lower half is the upper half's mirror and an odd middle node
        # is -r0, so a node may move off r0 exp(i theta_k) by the amount
        # theta_k + theta_(n-1-k) misses 2 pi, besides rounding
        r0 = 2.0
        c = build_contour(r0=r0, R=100.0, n_cut=32, n_circle=n_circle,
                          delta=delta)
        lam = c.lambdas[np.array(c.segments) == "circle"]
        theta0 = np.arcsin(c.delta / r0)
        theta = np.linspace(theta0, 2.0 * np.pi - theta0, n_circle)
        # the larger angle of a pair is >= 2, so its difference with
        # fl(2 pi) is exact, and sin(fl(2 pi)) = fl(2 pi) - 2 pi
        miss = np.abs((np.maximum(theta, theta[::-1]) - 2.0 * np.pi)
                      + np.minimum(theta, theta[::-1]) + np.sin(2.0 * np.pi))
        dev = np.abs(lam - r0 * np.exp(1j * theta))
        assert np.all(dev <= r0 * (4e-16 + miss))

    @pytest.mark.parametrize("delta", [0.0, 1e-3, 0.05, 2.0])
    @pytest.mark.parametrize("sig", [np.linspace(np.sqrt(2.0), np.sqrt(200.0), 32),
                                     np.sqrt(55.0) + 0.2 * np.arange(77)])
    def test_cut_sides_match_per_node_construction(self, sig, delta):
        # the lower side, laid out as the mirror of the upper, has the
        # bits of its own construction, signs of zero included
        h = sig[1] - sig[0]
        fast = _cut_sides(sig, h, delta)
        ref = _cut_sides_per_node(sig, h, delta)
        for a, b in zip(fast, ref):
            assert a.dtype == b.dtype == np.complex128
            assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("r0", [0.5, 3.7])
    @pytest.mark.parametrize("delta", [None, 0.0, 1e-3, 0.05, 2.0, 5.0])
    @pytest.mark.parametrize("n_circle", [32, 33, 64, 65])
    def test_circle_matches_per_node_construction(self, n_circle, delta, r0):
        # the circle's rhos, laid out as the upper half's roots and their
        # mirror, have the bits of a sheet chosen node by node, signs of
        # zero included; delta >= r0 starts the circle at theta = pi / 2
        c = build_contour(r0=r0, R=50.0, n_cut=32, n_circle=n_circle,
                          delta=delta)
        circle = np.array(c.segments) == "circle"
        rho, w = _circle_per_node(r0, c.delta, n_circle)
        assert np.array_equal(c.rhos[circle].view(np.int64), rho.view(np.int64))
        assert np.array_equal(c.weights[circle].view(np.int64),
                              w.view(np.int64))

    def test_default_delta_positive(self):
        c = build_contour(r0=2.0, R=50.0)
        assert c.delta == pytest.approx(2e-3)


def _mirror_per_entry(first, size, negate):
    """The mirror layout of a 1-d first half, one entry at a time in
    Python complex arithmetic (the reference for _mirror_fill)."""
    full = [complex(z) for z in first]
    for z in full[:size // 2][::-1]:
        full.append(complex(-z.real, z.imag) if negate
                    else complex(z.real, -z.imag))
    return np.array(full)


class TestMirrorLayout:
    """_mirror_fill completes a first half into the mirror layout and
    _is_mirror checks it (the grids laid out with them are checked in
    test_reversed_contour_is_its_mirror_image and
    test_forward's test_scan_grid_is_its_own_mirror)."""

    @pytest.mark.parametrize("negate", [False, True], ids=["plain", "negated"])
    @pytest.mark.parametrize("size", [1, 2, 5, 6, 7])
    def test_fill_matches_per_entry_mirror(self, size, negate):
        rng = np.random.default_rng(size)
        m = (size + 1) // 2
        first = rng.normal(size=m) + 1j * rng.normal(size=m)
        # signed zeros in both parts, and a self-mirror middle entry
        first[0] = complex(0.0, -0.0)
        if m > 1:
            first[1] = complex(-0.0, 0.0)
        if size % 2:
            first[-1] = complex(-0.0, 1.5) if negate else complex(1.5, 0.0)
        full = _mirror_fill(first, size, negate=negate)
        ref = _mirror_per_entry(first, size, negate)
        assert full.dtype == np.complex128 and full.shape == (size,)
        assert np.array_equal(full.view(np.int64), ref.view(np.int64))
        assert _is_mirror(full, negate=negate)
        # the other sign is a different layout (for sizes past the zeros)
        assert size <= 2 or not _is_mirror(full, negate=not negate)

    @pytest.mark.parametrize("size", [4, 5])
    def test_fill_and_check_along_an_inner_axis(self, size):
        rng = np.random.default_rng(size)
        m = (size + 1) // 2
        first = rng.normal(size=(2, m, 3)) + 1j * rng.normal(size=(2, m, 3))
        if size % 2:
            first[:, -1] = first[:, -1].real
        full = _mirror_fill(first, size, axis=1)
        assert full.shape == (2, size, 3)
        for i in range(2):
            for j in range(3):
                ref = _mirror_per_entry(first[i, :, j], size, False)
                assert np.array_equal(
                    np.ascontiguousarray(full[i, :, j]).view(np.int64),
                    ref.view(np.int64))
        assert _is_mirror(full, axis=1)
        assert not _is_mirror(full, axis=0) and not _is_mirror(full, axis=2)

    @pytest.mark.parametrize("negate", [False, True], ids=["plain", "negated"])
    def test_check_is_bit_exact(self, negate):
        first = np.array([1.0 + 2.0j, 3.0 - 1.0j, (1j if negate else 1.0)])
        full = _mirror_fill(first, 5, negate=negate)
        assert _is_mirror(full, negate=negate)
        # one ulp off in one part of one entry, or a middle entry that is
        # not its own mirror (a nonzero part the mirror negates), fails
        for k, part in ((0, 0), (3, 1), (2, 0 if negate else 1)):
            bad = full.copy().view(np.float64)
            bad[2 * k + part] = np.nextafter(bad[2 * k + part], np.inf)
            assert not _is_mirror(bad.view(np.complex128), negate=negate)
        # zeros of either sign mirror, as they compare equal
        assert _is_mirror(np.array([complex(0.0, 0.0), complex(0.0, 0.0)]),
                          negate=negate)


class TestQuadrature:
    def test_closure_residue_inside(self):
        # (1/2 pi i) int d mu/(mu - lam0) = 1 for lam0 inside the circle
        c = small_contour()
        lam0 = -0.5 + 0.3j
        val = integrate(c, 1.0 / (c.lambdas - lam0)) / (2j * np.pi)
        assert abs(val - 1.0) < 1e-5

    def test_closure_zero_outside(self):
        # a pole far outside the contour region contributes nothing
        c = small_contour()
        lam0 = -50.0
        val = integrate(c, 1.0 / (c.lambdas - lam0)) / (2j * np.pi)
        assert abs(val) < 1e-5

    def test_cauchy_reproduces_analytic_function(self):
        # f analytic across the cut: both cut sides cancel, the circle
        # reproduces f at interior points
        c = small_contour()
        f = 1.0 / (c.lambdas + 9.0)
        lam = -1.0 + 0.2j
        val = cauchy_transform(c, f, lam)
        assert abs(val - 1.0 / (lam + 9.0)) < 1e-7

    def test_residue_accuracy_improves_with_nodes(self):
        lam0 = -0.5
        errs = []
        for n in (64, 128):
            c = small_contour(n_cut=n, n_circle=n)
            val = integrate(c, 1.0 / (c.lambdas - lam0)) / (2j * np.pi)
            errs.append(abs(val - 1.0))
        assert errs[1] < errs[0] / 4.0

    def test_integrate_rejects_sample_count_mismatch(self):
        c = small_contour()
        with pytest.raises(DimensionMismatchError,
                           match=f"{len(c) - 1} samples for {len(c)} nodes"):
            integrate(c, np.ones(len(c) - 1))

    def test_integrate_matrix_samples(self):
        c = small_contour()
        lam0 = 0.1j
        samples = np.zeros((len(c), 2, 2), dtype=complex)
        samples[:, 0, 0] = 1.0 / (c.lambdas - lam0)
        out = integrate(c, samples) / (2j * np.pi)
        assert abs(out[0, 0] - 1.0) < 1e-5
        assert abs(out[1, 1]) == 0.0


class TestCoarsening:
    def _weyl(self, n_cut=65, n_circle=65, delta=0.0):
        c = build_contour(r0=2.0, R=100.0, n_cut=n_cut, n_circle=n_circle,
                          delta=delta)
        A = np.array([[1.0 + 0j]])
        M = np.array([model_weyl(A, nd.point) for nd in c.nodes])
        tail = tuple((SpectralPoint(1j * t), model_weyl(A, SpectralPoint(1j * t)))
                     for t in (50.0, 100.0, 200.0, 400.0))
        return WeylData(contour=c, M_samples=M, tail_samples=tail)

    def test_nodes_mode_halves_each_segment(self):
        w = self._weyl()
        cw = coarsen_weyl_data(w, "nodes")
        assert len(cw.contour) == 33 * 3
        assert cw.contour.R == w.contour.R
        # quadrature still closes: residue check on the coarse contour
        val = integrate(cw.contour,
                        1.0 / (cw.contour.lambdas - (-0.5))) / (2j * np.pi)
        assert abs(val - 1.0) < 1e-3

    def test_radius_mode_halves_R(self):
        w = self._weyl()
        cw = coarsen_weyl_data(w, "radius")
        assert cw.contour.R == pytest.approx(w.contour.R / 2.0, rel=0.1)
        sig = np.sqrt(np.abs(w.contour.lambdas[:2]))
        sigc = np.sqrt(np.abs(cw.contour.lambdas[:2]))
        assert abs(sig[0] - sig[1]) == pytest.approx(abs(sigc[0] - sigc[1]))

    def test_nodes_mode_needs_odd_counts(self):
        w = self._weyl(n_cut=64, n_circle=64)
        with pytest.raises(ValueError):
            coarsen_weyl_data(w, "nodes")

    def test_unknown_mode_rejected(self):
        w = self._weyl()
        with pytest.raises(ValueError):
            coarsen_weyl_data(w, "finer")

    @pytest.mark.parametrize("delta", [0.0, 2e-3])
    @pytest.mark.parametrize("mode", ["nodes", "radius"])
    def test_coarse_contour_is_build_contours(self, mode, delta):
        # the coarse contour is build_contour's for the derived parameters,
        # and its nodes are the kept fine nodes
        w = self._weyl(delta=delta)
        fine = w.contour
        coarse, keep = coarsen_contour(fine, mode)
        up, circle, lo = np.arange(65), np.arange(65, 130), np.arange(130, 195)
        if mode == "nodes":
            params = dict(R=100.0, n_circle=33, n_cut=33)
            expect = np.concatenate([up[::2], circle[::2], lo[::2]])
        else:
            sig = np.linspace(np.sqrt(2.0), 10.0, 65)
            m = int(np.sum(sig <= 10.0 / np.sqrt(2.0)))
            params = dict(R=sig[m - 1] ** 2, n_circle=65, n_cut=m)
            expect = np.concatenate([up[65 - m:], circle, lo[:m]])
        ref = build_contour(r0=2.0, delta=delta, **params)
        assert np.array_equal(keep, expect)
        assert coarse.R == pytest.approx(ref.R, rel=1e-12)
        assert coarse.segments == ref.segments
        assert coarse.delta == ref.delta == fine.delta
        for a, b in ((coarse.rhos, ref.rhos), (coarse.weights, ref.weights),
                     (coarse.rhos, fine.rhos[keep])):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        cw = coarsen_weyl_data(w, mode)
        assert cw.contour == coarse
        assert np.array_equal(cw.M_samples, w.M_samples[keep])

    @pytest.mark.parametrize("mode", ["nodes", "radius"])
    def test_moved_node_rejected(self, mode):
        # a contour build_contour did not lay out: one kept cut node moved
        fine = build_contour(r0=2.0, R=100.0, n_cut=65, n_circle=65,
                             delta=0.0)
        nodes = list(fine.nodes)
        nd = nodes[130]                    # the first lower-cut node
        nodes[130] = ContourNode(point=SpectralPoint(nd.point.rho * (1 + 1e-9)),
                                 weight=nd.weight, segment=nd.segment)
        moved = Contour(r0=fine.r0, R=fine.R, delta=fine.delta,
                        nodes=tuple(nodes))
        coarsen_contour(fine, mode)
        with pytest.raises(ValueError, match="build_contour"):
            coarsen_contour(moved, mode)
