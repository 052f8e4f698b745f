import numpy as np
import pytest
from scipy import integrate as sciint

import varexp as vx
from varexp import calculus, korn
from varexp.calculus import gradient, sym_gradient
from varexp.korn import (
    KornRatioRow,
    WetBlanketConfig,
    build_exponent,
    build_phi,
    build_velocity,
    korn_ratio_sequence,
    phi_raw,
    write_heatmaps,
    write_ratio_csv,
)
from varexp.mollify import MollifierFamily

A = np.array([[0.0, -1.0], [1.0, 0.0]])


def figure_domain(res=96):
    grid = vx.grid_on_box([-3, -3], [3, 3], [res, res])
    return vx.make_disc_domain((0, 0), 2.5, grid)


def test_config_validation():
    with pytest.raises(ValueError):
        WetBlanketConfig(alpha=2.0, beta=1.1)
    with pytest.raises(ValueError):
        WetBlanketConfig(skew=((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        WetBlanketConfig(eps=0.0)
    # the three scales must be finite and > 0, each refused by name
    for name in ("eps", "eta_radius", "eta_moll_eps"):
        for bad in (np.nan, np.inf, 0.0, -0.4):
            with pytest.raises(ValueError, match=rf"^{name} must be finite and > 0, got {bad!r}$"):
                WetBlanketConfig(**{name: bad})


def test_velocity_rigid_core_and_support():
    dom = figure_domain()
    grid = dom.grid
    u = build_velocity(WetBlanketConfig(), dom)
    xx = grid.coords()
    rho = np.sqrt(xx[0] ** 2 + xx[1] ** 2)
    hx = max(grid.spacing)

    core = rho < 0.6 - 2 * hx
    G = gradient(u, dom).values
    assert np.allclose(G[core], A, atol=1e-10)
    eps = sym_gradient(u, dom).values
    assert np.abs(eps[core]).max() < 1e-10
    outside = rho > 1.4 + 2 * hx
    assert np.abs(u.values[outside]).max() == 0.0
    # |eps(u)| lives only on the transition ring
    mag = vx.field_abs(sym_gradient(u, dom)).values
    ring = (rho > 0.6 - 2 * hx) & (rho < 1.4 + 2 * hx)
    assert np.abs(mag[~ring]).max() < 1e-10


def test_velocity_needs_room():
    grid = vx.grid_on_box([-1, -1], [1, 1], [32, 32])
    dom = vx.make_disc_domain((0, 0), 0.9, grid)
    with pytest.raises(ValueError, match="fit compactly"):
        build_velocity(WetBlanketConfig(), dom)


def test_exponent_pure_regions_and_sandwich():
    dom = figure_domain()
    cfg = WetBlanketConfig()
    u = build_velocity(cfg, dom)
    p = build_exponent(cfg, dom)
    vals = p.values.values
    assert p.p_minus >= cfg.alpha - 1e-12
    assert p.p_plus <= cfg.beta + 1e-12

    ring = vx.field_abs(sym_gradient(u, dom)).values > 1e-13
    assert np.allclose(vals[ring], cfg.alpha, atol=1e-12)

    xx = dom.grid.coords()
    rho = np.sqrt(xx[0] ** 2 + xx[1] ** 2)
    hx = max(dom.grid.spacing)
    deep = (rho < 0.2 - cfg.eps / 2 - 2 * hx) | ((rho > 1.4 + cfg.eps + 2 * hx) & dom.mask)
    assert np.allclose(vals[deep], cfg.beta, atol=1e-12)
    # transition ring strictly between the bounds somewhere
    between = (vals > cfg.alpha + 1e-6) & (vals < cfg.beta - 1e-6)
    assert between.any()

    # conjugate of the two pure values
    pc = vx.conjugate(p)
    assert np.allclose(pc.values.values[ring], 11.0, atol=1e-9)
    assert np.allclose(pc.values.values[deep], 2.0, atol=1e-12)


def test_exponent_stays_in_alpha_beta_exactly():
    # demo 03's grid and config: the mollified indicator's roundoff must not
    # push the exponent outside [alpha, beta], not even by one ulp
    cfg = WetBlanketConfig(alpha=1.1, beta=2.0, eps=0.4)
    p = build_exponent(cfg, figure_domain(96))
    assert p.p_minus == 1.1
    assert p.p_plus == 2.0


def test_phi_raw_integrability_split():
    from scipy.special import beta as beta_fn

    # oracle: adaptive quadrature of the L^1.1 modular of the raw profile
    val, _ = sciint.quad(lambda t: (abs(t) ** -0.5 - 1.0) ** 1.1, -1, 1, points=[0.0], limit=400)
    assert np.isfinite(val)
    # second route: substituting u = sqrt(|t|) gives 4 B(0.9, 2.1)
    assert val == pytest.approx(4.0 * beta_fn(0.9, 2.1), rel=1e-7)
    assert val == pytest.approx(2.2366096, abs=1e-6)
    # the square blows up like log(1/eps): no L^2 membership
    tails = [
        sciint.quad(lambda t: (t**-0.5 - 1.0) ** 2, eps, 1.0)[0] for eps in (1e-2, 1e-4, 1e-6)
    ]
    assert tails[2] > tails[1] > tails[0]
    assert tails[2] - tails[1] == pytest.approx(np.log(1e2), rel=0.05)


def test_build_phi_profiles():
    tg = vx.grid_on_box([-1.5], [1.5], [256])
    norms = []
    for n in range(1, 6):
        phi = build_phi(n, tg)
        assert np.all(phi.values >= -1e-12)
        norms.append(float(np.sqrt(np.sum(phi.values**2) * tg.spacing[0])))
    assert all(norms[i + 1] > norms[i] for i in range(4))  # L^2 growth in n
    with pytest.raises(ValueError, match="too coarse"):
        build_phi(9, tg)
    # mollification converges on the smooth tail, away from the spike
    t = tg.axis_coords(0)
    tail = np.abs(np.abs(t) - 0.6) < 0.1
    phi5 = build_phi(5, tg)
    assert np.abs(phi5.values[tail] - phi_raw(t)[tail]).max() < 0.02


def _phi_reference(n, t):
    """Tight adaptive quadrature of (phi * omega_{2^-n})(t), split at the singularity."""
    delta = 2.0 ** -n
    c = MollifierFamily(1).c_norm

    def integrand(s):
        y = (t - s) / delta
        return (abs(s) ** -0.5 - 1.0) * c / delta * np.exp(-1.0 / (1.0 - y * y)) if abs(y) < 1.0 else 0.0

    lo, hi = max(-1.0, t - delta), min(1.0, t + delta)
    if lo >= hi:
        return 0.0
    pts = [0.0] if lo < 0.0 < hi else None
    return sciint.quad(integrand, lo, hi, points=pts, epsabs=0.0, epsrel=1e-13, limit=400)[0]


@pytest.mark.parametrize(
    "n,cells,picks",
    [(n, 256, slice(None, None, 8)) for n in range(1, 6)]
    # 1025 cells put a node at t = 0; also the nodes where the window meets +-1
    + [(8, 1025, [0, 170, 171, 172, 510, 511, 512, 513, 514, 852, 853, 854, 1024])],
)
def test_build_phi_matches_tight_quadrature(n, cells, picks):
    tg = vx.grid_on_box([-1.5], [1.5], [cells])
    phi = build_phi(n, tg).values
    t = tg.axis_coords(0)
    idx = np.arange(cells)[picks]
    assert cells != 1025 or t[512] == 0.0
    ref = np.array([_phi_reference(n, float(tk)) for tk in t[idx]])
    assert np.abs(phi[idx] - ref).max() <= 1e-12 * np.abs(phi).max()


@pytest.mark.parametrize("cells", [63, 64, 128, 257, 300, 1025])
def test_blocked_phi_integrand_is_the_whole_grid_rule_bit_for_bit(cells):
    # the whole-grid evaluation phi_n had before its integrand was filled in blocks of nodes
    tg = vx.grid_on_box([-1.5], [1.5], [cells])
    t = tg.axis_coords(0)
    omega = MollifierFamily(1).scaled
    for n in range(1, 6):
        delta = 2.0 ** (-n)
        if tg.spacing[0] > delta:
            continue
        whole = np.zeros_like(t)
        for sign in (1.0, -1.0):
            lo, hi = (np.sqrt(np.clip(sign * t + d, 0.0, 1.0)) for d in (-delta, delta))
            whole += korn._gauss_legendre(
                lambda u: (2.0 - 2.0 * u) * omega((t[:, None] - sign * u * u)[..., None], delta), lo, hi
            )
        blocked = korn._phi_samples.__wrapped__(n, tg.dims, tg.spacing, tg.origin)
        assert np.array_equal(blocked, whole) and np.array_equal(np.signbit(blocked), np.signbit(whole))


def test_separable_factorization():
    # ||psi F||_{p(.)} = ||psi||_alpha ||F||_alpha when F sits in the alpha region
    dom = figure_domain(64)
    cfg = WetBlanketConfig()
    u = build_velocity(cfg, dom)
    p = build_exponent(cfg, dom)
    F = vx.field_abs(sym_gradient(u, dom))
    tg = vx.grid_on_box([-1.5], [1.5], [64])
    psi = np.cos(0.7 * tg.axis_coords(0)) + 1.2
    st = vx.Grid((64,) + dom.grid.dims, (tg.spacing[0],) + dom.grid.spacing, (tg.origin[0],) + dom.grid.origin)
    prod = vx.ScalarField(st, psi[:, None, None] * F.values[None, ...])
    lux = vx.luxembourg_norm(prod, p.extend_constant_in_time(st), dom)
    psi_a = (np.sum(np.abs(psi) ** cfg.alpha) * tg.spacing[0]) ** (1 / cfg.alpha)
    F_a = vx.modular(F, vx.constant_exponent(dom.grid, cfg.alpha), dom) ** (1 / cfg.alpha)
    assert lux == pytest.approx(psi_a * F_a, rel=1e-6)


@pytest.mark.parametrize("alpha,beta", [(1.1, 2.0), (1.5, 1.5)])
def test_ratio_sequence_matches_full_spacetime_norms(alpha, beta):
    # reference: the Luxembourg norm of the explicit space-time fields
    # phi_n |grad u| and phi_n |eps(u)| with the exponent extended in time
    dom = figure_domain(48)
    tg = vx.grid_on_box([-1.5], [1.5], [64])
    cfg = WetBlanketConfig(alpha=alpha, beta=beta)
    u = build_velocity(cfg, dom)
    p = build_exponent(cfg, dom)
    st = vx.Grid((64,) + dom.grid.dims, (tg.spacing[0],) + dom.grid.spacing, (tg.origin[0],) + dom.grid.origin)
    pst = p.extend_constant_in_time(st)
    spatial = [vx.field_abs(gradient(u, dom)).values, vx.field_abs(sym_gradient(u, dom)).values]
    for row in korn_ratio_sequence(cfg, dom, tg, 4):
        phi = build_phi(row.n, tg).values[:, None, None]
        num, den = (vx.luxembourg_norm(vx.ScalarField(st, phi * F), pst, dom) for F in spatial)
        assert row.num == pytest.approx(num, rel=1e-13)
        assert row.den == pytest.approx(den, rel=1e-13)


def test_ratio_sequence_rejects_non_finite_magnitudes(monkeypatch):
    # a NaN in u reaches |grad u| and |eps(u)|; the Luxembourg root drops
    # nodes that fail a > 0, so without a check it would return a finite norm
    dom = figure_domain(48)
    tg = vx.grid_on_box([-1.5], [1.5], [64])
    cfg = WetBlanketConfig()
    u = build_velocity(cfg, dom)
    p = build_exponent(cfg, dom)
    vals = u.values.copy()
    vals[24, 24, 0] = np.nan
    assert dom.mask[24, 24]
    strains = [vx.field_abs(f) for f in calculus._grad_sym(vx.VectorField(dom.grid, vals), dom)]
    monkeypatch.setattr(korn, "_construction", lambda cfg, domain: (*strains, p))
    with pytest.raises(ValueError, match="non-finite"):
        korn_ratio_sequence(cfg, dom, tg, 1)


def test_ratio_sequence_monotone_and_bounded_contrast():
    dom = figure_domain(48)
    tg = vx.grid_on_box([-1.5], [1.5], [128])
    rows = korn_ratio_sequence(WetBlanketConfig(), dom, tg, 4)
    assert [r.n for r in rows] == [1, 2, 3, 4]
    assert all(rows[i + 1].ratio > rows[i].ratio for i in range(3))
    assert all(r.ratio >= r.lower_bound - 1e-9 for r in rows)
    assert all(r.norm_beta > 0 and r.num > r.den > 0 for r in rows)

    flat = korn_ratio_sequence(WetBlanketConfig(alpha=1.5, beta=1.5), dom, tg, 3)
    ratios = [r.ratio for r in flat]
    assert max(ratios) / min(ratios) <= 1.01  # constant exponent: flat sequence


def test_writers(tmp_path):
    rows = [KornRatioRow(1, 1.0, 2.0, 3.0, 1.5, 2.0, 0.5)]
    path = tmp_path / "ratio.csv"
    write_ratio_csv(path, rows, comment="stamp")
    lines = path.read_text().splitlines()
    assert lines[0] == "# stamp"
    assert lines[1] == "n,norm_alpha,norm_beta,num,den,ratio,lower_bound"
    assert lines[2].startswith("1,1.0,2.0,3.0,1.5,2.0,0.5")

    dom = figure_domain(48)
    paths = write_heatmaps(tmp_path, WetBlanketConfig(), dom)
    for p in paths:
        assert (tmp_path / p).exists() or p  # absolute path returned
        assert p.endswith(".pgm")


def _edt_dilation(mask, radius, grid):
    from scipy import ndimage

    return mask | (ndimage.distance_transform_edt(~mask, sampling=grid.spacing) < radius)


@pytest.mark.parametrize("res", [96, 48, 64])  # bench and demo 03, bench smoke, korn-figure default
def test_dilation_matches_distance_transform_on_the_figure_grids(res):
    dom = figure_domain(res)
    cfg = WetBlanketConfig()
    e = vx.field_abs(sym_gradient(build_velocity(cfg, dom), dom)).values
    supp = e > 1e-13 * e.max()
    for radius in (cfg.eps, cfg.eps / 2.0, 0.1, 1.0):
        assert np.array_equal(korn._dilate_mask(supp, radius, dom.grid), _edt_dilation(supp, radius, dom.grid))


def test_dilation_matches_distance_transform_on_random_masks():
    rng = np.random.default_rng(7)
    grids = [vx.grid_on_box([0, 0], [1, 3], [30, 50]), vx.grid_on_box([0, 0, 0], [1, 2, 3], [12, 15, 17])]
    for g in grids:
        h = g.spacing
        # radii that equal lattice distances exactly, where the strict < decides
        exact = [3 * h[0], float(np.sqrt(sum((k * hk) ** 2 for k, hk in zip((3, 4, 1), h))))]
        for density in (0.002, 0.02, 0.2):
            mask = rng.random(g.dims) < density
            for radius in exact + [0.5 * min(h), 0.07, 0.2, 0.45]:
                got = korn._dilate_mask(mask, radius, g)
                assert np.array_equal(got, _edt_dilation(mask, radius, g)), (g.dims, density, radius)
        # past the diagonal the ball's reach is capped at n - 1 nodes per axis,
        # which still joins opposite corners
        beyond = 1.5 * g.diameter()
        corner = np.zeros(g.dims, dtype=bool)
        corner[(0,) * g.ndim] = True
        for mask in (corner, rng.random(g.dims) < 0.02):
            assert np.array_equal(korn._dilate_mask(mask, beyond, g), _edt_dilation(mask, beyond, g))
        # the EDT has no background to measure from in an empty mask
        full = np.ones(g.dims, dtype=bool)
        for radius in exact + [0.2, beyond]:
            assert not korn._dilate_mask(~full, radius, g).any()
            assert np.array_equal(korn._dilate_mask(full, radius, g), _edt_dilation(full, radius, g))


def test_log_sum_exp_matches_scipy_bitwise():
    from scipy.special import logsumexp

    # korn-spacetime's exponents against its time profiles
    dom = figure_domain(96)
    q = build_exponent(WetBlanketConfig(), dom).values.values[dom.mask]
    qs = np.unique(q)
    tg = vx.grid_on_box([-1.5], [1.5], [256])
    for n in range(1, 6):
        a = np.abs(build_phi(n, tg).values)
        a_q = qs[:, None] * np.log(a[a > 0.0])[None, :]
        assert korn._logsumexp_rows(a_q).tobytes() == logsumexp(a_q, axis=1).tobytes()
    # rows whose max is tied m > 1 times, a constant row, and a row tied everywhere but one entry
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 200)) * np.array([1e-3, 1.0, 30.0, 700.0, 1.0, 1.0])[:, None]
    for row, m in zip(a[:4], (2, 3, 7, 50)):
        row[rng.choice(200, size=m, replace=False)] = row.max()
    a[4] = -2.5
    a[5] = 1.25
    a[5, 17] = -40.0
    assert korn._logsumexp_rows(a).tobytes() == logsumexp(a, axis=1).tobytes()


def _clear_caches():
    for cached in (korn.build_velocity, korn._construction, korn._phi_samples):
        cached.cache_clear()


def test_cached_construction_is_bit_equal_to_an_uncached_build():
    _clear_caches()
    dom = figure_domain(48)
    cfg = WetBlanketConfig()
    u = build_velocity(cfg, dom)
    assert build_velocity(cfg, dom) is u
    fresh_u = korn.build_velocity.__wrapped__(cfg, dom)
    assert u.values.tobytes() == fresh_u.values.tobytes()

    p = build_exponent(cfg, dom)
    assert build_exponent(cfg, dom) is p
    grad_abs, eps_abs, p_read = korn._construction(cfg, dom)
    assert p_read is p and korn._construction(cfg, dom)[0] is grad_abs
    _clear_caches()  # the uncached construction builds its velocity afresh too
    fresh_p = korn._construction.__wrapped__(cfg, dom)[2]
    assert p.values.values.tobytes() == fresh_p.values.values.tobytes()
    assert (p.p_minus, p.p_plus) == (fresh_p.p_minus, fresh_p.p_plus)

    # the reference forms the gradient twice, once inside sym_gradient
    assert grad_abs.values.tobytes() == vx.field_abs(gradient(fresh_u, dom)).values.tobytes()
    assert eps_abs.values.tobytes() == vx.field_abs(sym_gradient(fresh_u, dom)).values.tobytes()

    tg = vx.grid_on_box([-1.5], [1.5], [128])
    twin = vx.grid_on_box([-1.5], [1.5], [128])  # equal geometry, another object
    shifted = vx.grid_on_box([-1.25], [1.5], [128])  # equal dims, other spacing and origin
    for n in (1, 3):
        for grids in ((tg, tg, twin), (shifted, shifted)):
            g = grids[0]
            fresh = korn._phi_samples.__wrapped__(n, g.dims, g.spacing, g.origin)
            for grid in grids:
                phi = build_phi(n, grid)
                assert phi.grid is grid and phi.values.tobytes() == fresh.tobytes()
    assert korn._phi_samples.cache_info().misses == 4

    rows = korn_ratio_sequence(cfg, dom, tg, 3)
    _clear_caches()
    assert korn_ratio_sequence(cfg, dom, tg, 3) == rows


def test_cache_keeps_configs_and_domains_apart():
    dom, twin = figure_domain(48), figure_domain(48)  # equal geometry, two objects
    cfg = WetBlanketConfig()
    # a nested list is stored as a tuple of floats, so the config stays hashable
    doubled = WetBlanketConfig(skew=[[0, -2], [2, 0]])
    assert doubled.skew == ((0.0, -2.0), (2.0, 0.0))
    for other in (WetBlanketConfig(alpha=1.5), doubled):
        p, p_other = build_exponent(cfg, dom), build_exponent(other, dom)
        assert p_other is not p
        _clear_caches()  # the reference builds its velocity afresh, apart from the caches under test
        fresh = korn._construction.__wrapped__(other, dom)[2]
        assert p_other.values.values.tobytes() == fresh.values.values.tobytes()
    assert build_exponent(WetBlanketConfig(alpha=1.5), dom).p_minus == 1.5
    assert np.array_equal(build_velocity(doubled, dom).values, 2.0 * build_velocity(cfg, dom).values)

    u, u_twin = build_velocity(cfg, dom), build_velocity(cfg, twin)
    assert u_twin is not u and u_twin.grid is twin.grid
    assert u_twin.values.tobytes() == u.values.tobytes()
    p, p_twin = build_exponent(cfg, dom), build_exponent(cfg, twin)
    assert p_twin is not p and p_twin.values.values.tobytes() == p.values.values.tobytes()


def test_cached_arrays_are_read_only():
    dom = figure_domain(48)
    cfg = WetBlanketConfig()
    tg = vx.grid_on_box([-1.5], [1.5], [64])
    u = build_velocity(cfg, dom)
    grad_abs, eps_abs, _ = korn._construction(cfg, dom)
    arrays = [u.values, grad_abs.values, eps_abs.values, build_exponent(cfg, dom).values.values]
    arrays += [korn._phi_samples(2, tg.dims, tg.spacing, tg.origin), build_phi(2, tg).values]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_korn_pass_builds_each_ingredient_once(monkeypatch, tmp_path):
    # korn-figure's calls: the ratio table, the heatmaps, then the sampled profiles
    _clear_caches()
    calls = {"convolve": [], "gradient": 0, "sym_gradient": 0, "_derivative": 0, "quadrature": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    korn_convolve = korn.convolve

    def convolve(f, eps):
        calls["convolve"].append(eps)
        return korn_convolve(f, eps)

    monkeypatch.setattr(korn, "convolve", convolve)
    monkeypatch.setattr(calculus, "gradient", counted("gradient", calculus.gradient))
    monkeypatch.setattr(calculus, "sym_gradient", counted("sym_gradient", calculus.sym_gradient))
    monkeypatch.setattr(calculus, "_derivative", counted("_derivative", calculus._derivative))
    monkeypatch.setattr(korn, "_gauss_legendre", counted("quadrature", korn._gauss_legendre))

    dom = figure_domain(48)
    cfg = WetBlanketConfig()
    tg = vx.grid_on_box([-1.5], [1.5], [128])
    korn_ratio_sequence(cfg, dom, tg, 5)
    write_heatmaps(tmp_path, cfg, dom)
    profiles = [build_phi(n, tg) for n in range(1, 6)]
    # one mollification for the velocity's cutoff, one for the exponent's mix
    assert calls["convolve"] == [cfg.eta_moll_eps, cfg.eps / 2.0]
    # one stencil pass, one derivative per axis, gives both |grad u| and |eps(u)|
    assert (calls["gradient"], calls["sym_gradient"], calls["_derivative"]) == (1, 0, 2)
    assert calls["quadrature"] == 2 * len(profiles)  # both sides of t = 0, once per n
