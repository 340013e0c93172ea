"""Tests for price ingestion, summary statistics, model I/O, and the fitter."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nmvmrisk as nr
from nmvmrisk import fit as fitmod
from nmvmrisk.fit import (EMError, FitConfig, ModelFileError,
                          PriceFileError, ReturnsMatrix, _estep, load_model,
                          load_prices, mcecm_fit, save_model, summarize)
from nmvmrisk.mathkit import QuadratureSpec
from nmvmrisk.mixing import Degenerate, Gig, InverseGaussian


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SYNTH_MU = np.array([0.01, 0.02, -0.005])
SYNTH_GAMMA = np.array([0.05, -0.03, 0.02])
SYNTH_SIGMA = np.array([[0.04, 0.01, 0.004],
                        [0.01, 0.09, -0.006],
                        [0.004, -0.006, 0.0225]])
SYNTH_MIXING = Gig(lam=-0.5, chi=1.44, psi=1.44)  # unit-mean NIG mixing


def synthetic_returns(t: int, seed: int) -> ReturnsMatrix:
    rng = np.random.default_rng(seed)
    z = SYNTH_MIXING.sample(rng, t)
    chol = np.linalg.cholesky(SYNTH_SIGMA)
    noise = rng.standard_normal((t, 3)) @ chol.T
    x = SYNTH_MU + np.outer(z, SYNTH_GAMMA) + np.sqrt(z)[:, None] * noise
    return ReturnsMatrix(assets=["a", "b", "c"],
                         dates=[str(i) for i in range(t)], values=x)


def synthetic_model() -> nr.NmvmModel:
    return nr.NmvmModel(mu=SYNTH_MU, gamma=SYNTH_GAMMA, sigma=SYNTH_SIGMA,
                        mixing=SYNTH_MIXING)


class TestLoadPrices:
    def test_single_return(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "date,acme\n2024-01-02,100\n2024-01-03,110\n")
        rm = load_prices(path)
        assert rm.assets == ["acme"]
        assert rm.values.shape == (1, 1)
        assert rm.values[0, 0] == pytest.approx(math.log(1.1), rel=1e-14)

    def test_constant_prices_zero_returns(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "date,acme\n2024-01-02,50\n2024-01-03,50\n"
                     "2024-01-04,50\n")
        rm = load_prices(path)
        assert np.allclose(rm.values, 0.0)

    def test_missing_cell_drops_row(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "date,a,b\n2024-01-02,100,200\n2024-01-03,101,\n"
                     "2024-01-04,102,204\n")
        rm = load_prices(path)
        assert rm.dropped_rows == 1
        assert rm.values.shape == (1, 2)
        assert rm.values[0, 0] == pytest.approx(math.log(102.0 / 100.0))

    def test_malformed_row_names_line(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "date,a,b\n2024-01-02,100,200\n2024-01-03,101\n")
        with pytest.raises(PriceFileError, match="line 3"):
            load_prices(path)

    def test_non_numeric_price(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "date,a\n2024-01-02,100\n2024-01-03,oops\n")
        with pytest.raises(PriceFileError, match="line 3"):
            load_prices(path)

    def test_non_positive_price(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "date,a\n2024-01-02,100\n2024-01-03,-5\n")
        with pytest.raises(PriceFileError, match="positive"):
            load_prices(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_price(self, tmp_path, cell):
        path = write(tmp_path, "p.csv",
                     f"date,a\n2024-01-02,100\n2024-01-03,{cell}\n")
        with pytest.raises(PriceFileError,
                           match="line 3: prices must be finite and positive"):
            load_prices(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "p.csv", "time,a\n2024-01-02,100\n")
        with pytest.raises(PriceFileError, match="header"):
            load_prices(path)

    def test_dates_must_ascend(self, tmp_path):
        path = write(tmp_path, "p.csv",
                     "date,a\n2024-01-03,100\n2024-01-02,101\n")
        with pytest.raises(PriceFileError, match="ascending"):
            load_prices(path)

    def test_byte_order_mark(self, tmp_path):
        # spreadsheets export CSV with a UTF-8 byte-order mark
        path = write(tmp_path, "p.csv",
                     "\ufeffdate,acme\n2024-01-02,100\n2024-01-03,110\n")
        rm = load_prices(path)
        assert rm.assets == ["acme"]
        assert rm.values[0, 0] == pytest.approx(math.log(1.1), rel=1e-14)


class TestSummarize:
    def test_two_point_symmetry(self):
        rm = ReturnsMatrix(assets=["a"], dates=["1", "2"],
                           values=np.array([[0.01], [-0.01]]))
        stats = summarize(rm)["a"]
        assert stats["mean"] == pytest.approx(0.0, abs=1e-18)
        assert stats["min"] == -0.01 and stats["max"] == 0.01

    def test_std_uses_t_minus_one(self):
        rm = ReturnsMatrix(assets=["a"], dates=["1", "2", "3"],
                           values=np.array([[1.0], [2.0], [3.0]]))
        stats = summarize(rm)["a"]
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["std"] == pytest.approx(1.0)

    def test_model_implied_mean(self):
        rm = synthetic_returns(10_000, seed=2718)
        stats = summarize(rm)
        mixing_mean = SYNTH_MIXING.moments().ez
        implied = SYNTH_MU + SYNTH_GAMMA * mixing_mean
        for j, name in enumerate(rm.assets):
            se = rm.values[:, j].std(ddof=1) / math.sqrt(rm.t)
            assert abs(stats[name]["mean"] - implied[j]) <= 4.0 * se

    def test_needs_two_rows(self):
        rm = ReturnsMatrix(assets=["a"], dates=["1"],
                           values=np.array([[0.01]]))
        with pytest.raises(ValueError):
            summarize(rm)


class TestModelFile:
    def test_roundtrip_bit_identical(self, tmp_path, location_model):
        path = tmp_path / "m.json"
        save_model(location_model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.mu, location_model.mu)
        assert np.array_equal(loaded.gamma, location_model.gamma)
        assert np.array_equal(loaded.sigma, location_model.sigma)
        assert loaded.mixing == location_model.mixing

    @pytest.mark.parametrize("mixing", [Degenerate(),
                                        InverseGaussian(0.9, 1.4),
                                        nr.Gamma(2.5, 1.3),
                                        nr.Gamma(1.0, 1.0),
                                        nr.Exponential(),
                                        Gig(3.0, 0.0, 1.0),
                                        Gig(-2.0, 2.0, 0.0)],
                             ids=lambda law: repr(law))
    def test_roundtrip_families(self, tmp_path, mixing):
        model = nr.NmvmModel(mu=[0.0, 0.1], gamma=[0.05, -0.02],
                             sigma=[[0.04, 0.01], [0.01, 0.09]],
                             mixing=mixing)
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.gamma, model.gamma)
        assert loaded.mixing == mixing

    @given(data=st.data(), n=st.integers(1, 3),
           scale_exp=st.integers(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_bit_identical_over_magnitudes(self, tmp_path_factory,
                                                     data, n, scale_exp):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(1e-300, 1e300)
        mu = data.draw(st.lists(finite, min_size=n, max_size=n))
        gamma = data.draw(st.lists(finite, min_size=n, max_size=n))
        # diagonal in [0.5, 2] times a common scale, correlations below
        # 1/(n-1): positive definite and well conditioned at every magnitude
        diag = np.array(data.draw(st.lists(st.floats(0.5, 2.0), min_size=n,
                                           max_size=n))) * 10.0 ** scale_exp
        corr = np.array(data.draw(st.lists(st.floats(-0.4, 0.4),
                                           min_size=n * n, max_size=n * n)))
        corr = np.triu(corr.reshape(n, n), 1)
        root = np.sqrt(diag)
        sigma = np.diag(diag) + np.outer(root, root) * (corr + corr.T)
        mixing = data.draw(st.one_of(
            st.builds(Gig, st.floats(-1e3, 1e3), positive, positive),
            st.builds(lambda lam, psi: Gig(lam, 0.0, psi),
                      st.floats(1e-300, 1e3), positive),
            st.builds(lambda lam, chi: Gig(-lam, chi, 0.0),
                      st.floats(1e-300, 1e3), positive),
            st.builds(nr.Gamma, positive, positive),
            st.builds(InverseGaussian, positive, positive),
            st.just(nr.Exponential()), st.just(Degenerate())))
        model = nr.NmvmModel(mu=mu, gamma=gamma, sigma=sigma, mixing=mixing)
        path = tmp_path_factory.mktemp("roundtrip") / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        for name in ("mu", "gamma", "sigma"):
            assert [v.hex() for v in getattr(loaded, name).ravel().tolist()] \
                == [v.hex() for v in getattr(model, name).ravel().tolist()]
        assert loaded.mixing == mixing

    @pytest.mark.parametrize("keys, value", [
        (("mixing", "parameters"), None),
        (("mixing", "parameters", "lambda"), {"x": 1}),
        (("mixing", "family"), ["gig"]),
        (("n",), 1.9),
        (("mu",), ["0.5"]),
        (("gamma",), [True]),
        (("sigma",), [10 ** 400]),
    ], ids=["parameters-null", "lambda-object", "family-list", "n-float",
            "mu-string", "gamma-bool", "sigma-int-beyond-float"])
    def test_malformed_values_rejected(self, tmp_path, keys, value):
        # a valid one-asset file; each edit alone makes it malformed
        payload = {"schema_version": 1, "n": 1, "mu": [0.0], "gamma": [0.0],
                   "sigma": [1.0],
                   "mixing": {"family": "gig", "parameters": {
                       "lambda": -0.5, "chi": 1.0, "psi": 1.0}}}
        *outer, last = keys
        target = payload
        for key in outer:
            target = target[key]
        target[last] = value
        path = write(tmp_path, "bad.json", json.dumps(payload))
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_non_spd_sigma_rejected(self, tmp_path):
        text = """{
  "schema_version": 1, "n": 2,
  "mu": [0, 0], "gamma": [0, 0],
  "sigma": [1.0, 2.0, 2.0, 1.0],
  "mixing": {"family": "degenerate", "parameters": {}}
}"""
        path = write(tmp_path, "bad.json", text)
        with pytest.raises(nr.NotSpdError):
            load_model(path)

    def test_missing_mixing_block(self, tmp_path):
        text = """{
  "schema_version": 1, "n": 1,
  "mu": [0], "gamma": [0], "sigma": [1.0]
}"""
        path = write(tmp_path, "bad.json", text)
        with pytest.raises(ModelFileError, match="mixing"):
            load_model(path)

    def test_schema_version_mismatch(self, tmp_path):
        text = """{
  "schema_version": 99, "n": 1,
  "mu": [0], "gamma": [0], "sigma": [1.0],
  "mixing": {"family": "degenerate", "parameters": {}}
}"""
        path = write(tmp_path, "bad.json", text)
        with pytest.raises(ModelFileError, match="schema_version"):
            load_model(path)

    def test_incomplete_mixing_parameters(self, tmp_path):
        text = """{
  "schema_version": 1, "n": 1,
  "mu": [0], "gamma": [0], "sigma": [1.0],
  "mixing": {"family": "gig", "parameters": {"lambda": -0.5}}
}"""
        path = write(tmp_path, "bad.json", text)
        with pytest.raises(ModelFileError, match="missing"):
            load_model(path)

    def test_byte_order_mark(self, tmp_path, location_model):
        path = tmp_path / "m.json"
        save_model(location_model, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded = load_model(path)
        assert np.array_equal(loaded.sigma, location_model.sigma)
        assert loaded.mixing == location_model.mixing


class TestMcecm:
    def test_bessel_overflow_raises_emerror_alone(self):
        # kve overflows at order 1e6: the E-step's own check names it,
        # before numpy warns of the inf / inf it divides
        rm = synthetic_returns(300, seed=3)
        with pytest.raises(EMError, match="Bessel overflow"):
            mcecm_fit(rm, FitConfig(lambda_value=1e6))

    def test_single_iteration_contract(self):
        rm = synthetic_returns(400, seed=5)
        result = mcecm_fit(rm, FitConfig(max_iters=1))
        assert result.iterations == 1
        assert result.converged is False
        assert len(result.log_likelihood_trace) == 1

    def test_ascent_from_truth(self):
        rm = synthetic_returns(4000, seed=7)
        truth = synthetic_model()
        *_, ll_truth = _estep(rm.values, truth.mu, truth.gamma, truth.sigma,
                              truth.mixing.lam, truth.mixing.chi,
                              truth.mixing.psi, need_log=False)
        result = mcecm_fit(rm, FitConfig(max_iters=2), initial=truth)
        assert result.log_likelihood_trace[0] >= ll_truth - 1e-8
        assert result.log_likelihood_trace[1] >= \
            result.log_likelihood_trace[0] - 1e-8

    def test_trace_non_decreasing(self):
        rm = synthetic_returns(3000, seed=11)
        result = mcecm_fit(rm, FitConfig(max_iters=40))
        trace = np.array(result.log_likelihood_trace)
        assert np.all(np.diff(trace) >= -1e-8)

    def test_estep_weights_satisfy_cauchy_schwarz(self):
        rm = synthetic_returns(500, seed=13)
        truth = synthetic_model()
        delta, eta, _, _ = _estep(rm.values, truth.mu, truth.gamma,
                                  truth.sigma, truth.mixing.lam,
                                  truth.mixing.chi, truth.mixing.psi,
                                  need_log=False)
        assert np.all(delta * eta >= 1.0 - 1e-12)

    @pytest.mark.parametrize("lambda_mode,kernels", [
        ("fixed", {"kve": 0, "recurrence": 11}),
        ("free", {"kve": 28, "recurrence": 2})], ids=["fixed", "free"])
    def test_shared_work_done_once(self, monkeypatch, lambda_mode, kernels):
        # one kernel before the loop, then per step the cycle-2 kernel and
        # the kernel at the new parameters: one recurrence each at a
        # half-integer order (p = -2 while lambda = -1/2), else 2 kve
        # orders, plus the 2 E[log Z] orders in cycle 2 when lambda is free;
        # the free fit moves lambda off -1/2 in step 1's mixing update, so
        # 2 + 2 + 4 * (2 + 2 + 2) = 28. An extrapolation needs 3 steps of
        # budget after 3 plain ones, so 5 steps take none
        rm = synthetic_returns(400, seed=5)
        counts = {"kve": 0, "recurrence": 0, "whiten": 0}
        kve, recurrence = fitmod._sspec.kve, fitmod._kve_recurrence
        whiten = fitmod._whiten

        def counting_kve(order, z):
            counts["kve"] += np.size(z) == rm.t
            return kve(order, z)

        def counting_recurrence(m, z):
            counts["recurrence"] += np.size(z) == rm.t
            return recurrence(m, z)

        def counting_whiten(*args):
            counts["whiten"] += 1
            return whiten(*args)

        monkeypatch.setattr(fitmod._sspec, "kve", counting_kve)
        monkeypatch.setattr(fitmod, "_kve_recurrence", counting_recurrence)
        monkeypatch.setattr(fitmod, "_whiten", counting_whiten)
        result = mcecm_fit(rm, FitConfig(max_iters=5, ll_tol=1e-300,
                                         lambda_mode=lambda_mode))
        assert result.iterations == 5
        assert counts == {**kernels, "whiten": 11}
        assert result.diagnostics == {"kernel_evaluations": 11,
                                      "extrapolations_tried": 0,
                                      "extrapolations_kept": 0}

    def test_squarem_engages_on_a_crawling_fit(self):
        # plain MCECM took 65 iterations to a final log-likelihood of
        # 1149.492837043349 on these data; each kept extrapolation is one
        # kernel at the point plus a stabilizing step, 1 + 2 * 21 + 4 = 47
        result = mcecm_fit(synthetic_returns(2000, seed=5), FitConfig())
        assert result.converged
        assert result.iterations == 21
        assert result.diagnostics == {"kernel_evaluations": 47,
                                      "extrapolations_tried": 4,
                                      "extrapolations_kept": 4}
        trace = np.array(result.log_likelihood_trace)
        assert np.all(np.diff(trace) >= 0.0)
        assert trace[-1] >= 1149.492837043349

    @pytest.mark.parametrize("spoil", [
        lambda mu, gamma, sigma, lam, chi, psi:
            (mu, gamma, -sigma, lam, chi, psi),
        lambda mu, gamma, sigma, lam, chi, psi:
            (mu, gamma, sigma, 1e6, chi, psi),
        lambda mu, gamma, sigma, lam, chi, psi:
            (mu, gamma, sigma, lam, math.exp(1e3), psi)],
        ids=["sigma_not_pd", "bessel_overflow", "exp_overflow"])
    def test_rejected_point_keeps_the_plain_path(self, monkeypatch, spoil):
        # a point that fails before its stabilizing step runs costs no step,
        # so the fit follows plain MCECM, trying again after 2, 4, ... steps
        rm = synthetic_returns(2000, seed=5)
        cfg = FitConfig(max_iters=30)
        monkeypatch.setattr(fitmod, "_crawling", lambda trace: False)
        plain = mcecm_fit(rm, cfg)
        monkeypatch.undo()
        extrapolate = fitmod._extrapolate
        monkeypatch.setattr(fitmod, "_extrapolate",
                            lambda *thetas: spoil(*extrapolate(*thetas)))
        result = mcecm_fit(rm, cfg)
        assert result.diagnostics["extrapolations_tried"] == 4
        assert result.diagnostics["extrapolations_kept"] == 0
        assert result.iterations == 30
        assert result.log_likelihood_trace == plain.log_likelihood_trace

    def test_rejected_step_counts_but_leaves_the_trace(self):
        # on this free-index fit 4 of 7 stabilizing steps end below the step
        # they would replace: each costs a step of max_iters, no trace entry
        rm = synthetic_returns(1000, seed=7)
        result = mcecm_fit(rm, FitConfig(lambda_mode="free", max_iters=60))
        tried = result.diagnostics["extrapolations_tried"]
        kept = result.diagnostics["extrapolations_kept"]
        assert (tried, kept) == (7, 3)
        assert result.iterations == 60
        assert len(result.log_likelihood_trace) == 60 - (tried - kept)
        assert np.all(np.diff(result.log_likelihood_trace) >= 0.0)

    @pytest.mark.parametrize("mixing", [Gig(-2.0, 2.0, 0.0),
                                        Gig(2.0, 0.0, 1.0)])
    def test_warm_start_needs_interior_gig(self, mixing):
        rm = synthetic_returns(400, seed=5)
        initial = nr.NmvmModel(mu=SYNTH_MU, gamma=SYNTH_GAMMA,
                               sigma=SYNTH_SIGMA, mixing=mixing)
        with pytest.raises(ValueError, match="chi > 0 and psi > 0"):
            mcecm_fit(rm, FitConfig(max_iters=1), initial=initial)

    def test_fixed_index_warm_start_keeps_lambda_value(self):
        rm = synthetic_returns(400, seed=5)
        initial = nr.NmvmModel(mu=SYNTH_MU, gamma=SYNTH_GAMMA,
                               sigma=SYNTH_SIGMA, mixing=Gig(1.3, 1.0, 1.0))
        with pytest.raises(ValueError, match="fixed-index fit holds "
                                             "lambda_value -0.5"):
            mcecm_fit(rm, FitConfig(lambda_mode="fixed", lambda_value=-0.5),
                      initial=initial)

    def test_free_index_warm_start_starts_from_its_lambda(self, monkeypatch):
        rm = synthetic_returns(400, seed=5)
        initial = nr.NmvmModel(mu=SYNTH_MU, gamma=SYNTH_GAMMA,
                               sigma=SYNTH_SIGMA, mixing=Gig(1.3, 1.0, 1.0))
        seen = []
        update = fitmod._update_mixing

        def recording_update(lam, *args):
            seen.append(lam)
            return update(lam, *args)

        monkeypatch.setattr(fitmod, "_update_mixing", recording_update)
        mcecm_fit(rm, FitConfig(lambda_mode="free", lambda_value=-0.5,
                                max_iters=1), initial=initial)
        assert seen == [1.3]

    @pytest.mark.parametrize("column,message", [
        (lambda x: np.zeros(len(x)), "zero variance: c"),
        (lambda x: x[:, 0] - 2.0 * x[:, 1], "rank 2 of 3")],
        ids=["constant", "collinear"])
    def test_singular_columns_are_named(self, column, message):
        x = synthetic_returns(300, seed=3).values.copy()
        x[:, 2] = column(x)
        rm = ReturnsMatrix(assets=["a", "b", "c"],
                           dates=[str(i) for i in range(len(x))], values=x)
        with pytest.raises(ValueError, match=message):
            mcecm_fit(rm, FitConfig())

    def test_unit_ez_identification(self):
        rm = synthetic_returns(2000, seed=17)
        base = mcecm_fit(rm, FitConfig(max_iters=30))
        scaled = mcecm_fit(rm, FitConfig(max_iters=30,
                                         identification="unit_ez"))
        assert scaled.model.mixing.moments().ez == pytest.approx(1.0,
                                                                 abs=1e-10)

        def implied(model):
            mm = model.mixing.moments()
            mean = model.mu + model.gamma * mm.ez
            cov = mm.var * np.outer(model.gamma, model.gamma) \
                + mm.ez * model.sigma
            return mean, cov

        mean_a, cov_a = implied(base.model)
        mean_b, cov_b = implied(scaled.model)
        assert np.abs(mean_a - mean_b).max() <= 1e-10
        assert np.abs(cov_a - cov_b).max() <= 1e-10

    def test_reproducible(self):
        rm = synthetic_returns(1500, seed=23)
        r1 = mcecm_fit(rm, FitConfig(max_iters=25))
        r2 = mcecm_fit(rm, FitConfig(max_iters=25))
        assert r1.log_likelihood_trace == r2.log_likelihood_trace
        assert np.array_equal(r1.model.gamma, r2.model.gamma)

    def test_lambda_free_mode_runs(self):
        rm = synthetic_returns(1500, seed=29)
        result = mcecm_fit(rm, FitConfig(max_iters=15, lambda_mode="free"))
        trace = np.array(result.log_likelihood_trace)
        assert np.all(np.diff(trace) >= -1e-8)

    def test_without_location(self):
        # mu stays at zero, and the fit without it reaches at most the
        # likelihood of the fit with it
        rm = synthetic_returns(2000, seed=31)
        result = mcecm_fit(rm, FitConfig(include_mu=False))
        assert result.converged
        assert np.all(result.model.mu == 0.0)
        trace = np.array(result.log_likelihood_trace)
        assert np.all(np.diff(trace) >= 0.0)
        with_mu = mcecm_fit(rm, FitConfig())
        assert trace[-1] <= with_mu.log_likelihood_trace[-1]

    def test_needs_enough_rows(self):
        rm = ReturnsMatrix(assets=["a", "b", "c"], dates=["1", "2", "3"],
                           values=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            mcecm_fit(rm, FitConfig(max_iters=1))

    @pytest.mark.parametrize("t,n", [(20000, 3), (5000, 30), (4999, 7)])
    def test_dispersion_sum_matches_outer_product_mean(self, t, n):
        # the unoptimized three-operand einsum of the Sigma update adds the
        # same products in the same order as the mean of eta-weighted outer
        # products; fits stay bit-identical only while this holds
        rng = np.random.default_rng(t + n)
        centered = rng.standard_normal((t, n))
        eta = rng.gamma(2.0, 1.0, t)
        outer = np.einsum("ti,tj->tij", centered, centered)
        reference = (eta[:, None, None] * outer).mean(axis=0)
        assert np.array_equal(
            np.einsum("ti,tj,t->ij", centered, centered, eta) / t, reference)

    def test_memory_below_one_outer_product_tensor(self):
        t, n = 5000, 30
        rng = np.random.default_rng(37)
        z = SYNTH_MIXING.sample(rng, t)
        x = 0.01 * np.outer(z, rng.standard_normal(n)) + \
            0.1 * np.sqrt(z)[:, None] * rng.standard_normal((t, n))
        rm = ReturnsMatrix(assets=[f"a{i}" for i in range(n)],
                           dates=[str(i) for i in range(t)], values=x)
        tracemalloc.start()
        try:
            mcecm_fit(rm, FitConfig(max_iters=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (T, n, n) float64 array alone takes 8 T n^2 bytes
        assert peak < 8 * t * n * n

    def test_recovery_moderate_sample(self):
        rm = synthetic_returns(8000, seed=31)
        result = mcecm_fit(rm, FitConfig(max_iters=200, ll_tol=1e-7,
                                         identification="unit_ez"))
        mm = result.model.mixing.moments()
        implied_mean = result.model.mu + result.model.gamma * mm.ez
        x = rm.values
        se_mean = x.std(axis=0, ddof=1) / math.sqrt(rm.t)
        truth_mean = SYNTH_MU + SYNTH_GAMMA * SYNTH_MIXING.moments().ez
        assert np.all(np.abs(implied_mean - truth_mean) <= 4.0 * se_mean)


@pytest.mark.parametrize("n", [1, 3])
@given(lam=st.floats(-3.0, 3.0), chi=st.floats(0.1, 5.0),
       psi=st.floats(0.1, 5.0))
@settings(max_examples=50, deadline=None)
def test_log_likelihood_is_the_mixture_density(n, lam, chi, psi):
    # sum_i log E_Z[N(x_i; mu + gamma Z, Z Sigma)], by quadrature over the
    # GIG density, against the closed form the E-step kernel returns; the
    # absolute floor covers sums near 0 (quadrature error stays below 1e-12)
    mu, gamma, sigma = SYNTH_MU[:n], SYNTH_GAMMA[:n], SYNTH_SIGMA[:n, :n]
    x = synthetic_returns(6, seed=3).values[:, :n]
    mixing = Gig(lam, chi, psi)
    chol = np.linalg.cholesky(sigma)
    half_log_det = float(np.sum(np.log(np.diag(chol))))
    spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-12,
                          max_subdivisions=2000)

    def normal_density(row):
        def f(s):
            resid = row - mu - np.multiply.outer(s, gamma)
            white = np.linalg.solve(chol, resid.T)
            q = np.sum(white * white, axis=0)
            return np.exp(-0.5 * q / s - 0.5 * n * np.log(2.0 * math.pi * s)
                          - half_log_det)
        return f

    expected = sum(math.log(mixing.expect(normal_density(row), spec))
                   for row in x)
    *_, ll = _estep(x, mu, gamma, sigma, lam, chi, psi, need_log=False)
    assert ll == pytest.approx(expected, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("p", [-20.0, -7.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5,
                               1.0, 1.5, 3.0, 19.5, -2.3, 0.7, 7.25])
def test_two_bessel_orders_give_the_third(p):
    z = np.geomspace(1e-3, 500.0, 400)
    got = fitmod._kve_neighbours(p, z)
    for k, order in zip(got, (p - 1.0, p, p + 1.0)):
        direct = fitmod._sspec.kve(order, z)
        assert np.max(np.abs(k / direct - 1.0)) <= 1e-13


@given(twice_p=st.integers(-128, 128),
       log_z=st.lists(st.floats(math.log(1e-3), math.log(800.0)),
                      min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_half_integer_orders_by_recurrence(twice_p, log_z):
    # 2p integer and |p| <= 64: the recurrence gives all three orders
    p = twice_p / 2.0
    z = np.exp(np.array(log_z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fitmod._kve_neighbours(p, z)
    for k, order in zip(got, (p - 1.0, p, p + 1.0)):
        direct = fitmod._sspec.kve(order, z)
        assert np.array_equal(np.isinf(k), np.isinf(direct))
        finite = np.isfinite(direct)
        assert np.all(np.abs(k[finite] / direct[finite] - 1.0) <= 1e-13)


@pytest.mark.parametrize("p", [-2.0, -15.5, 63.5])
def test_recurrence_against_mpmath(p):
    mpmath = pytest.importorskip("mpmath")
    z = np.array([1e-3, 0.37, 2.0, 41.0, 800.0])
    got = fitmod._kve_neighbours(p, z)
    with mpmath.workdps(40):
        for k, order in zip(got, (p - 1.0, p, p + 1.0)):
            for value, zi in zip(k, z):
                ref = mpmath.besselk(order, zi) * mpmath.exp(zi)
                assert abs(value / float(ref) - 1.0) <= 1e-13


def test_recurrence_only_within_the_order_bound(monkeypatch):
    # above the bound (lambda = 1e6 gives a half-integer p too) or off the
    # half-integers, kve gives the orders
    taken = []
    recurrence = fitmod._kve_recurrence

    def recording(m, z):
        taken.append(m)
        return recurrence(m, z)

    monkeypatch.setattr(fitmod, "_kve_recurrence", recording)
    z = np.array([0.5, 3.0])
    for p in (64.0, -64.0, -0.5, 64.5, -64.5, 1e6, -2.3):
        fitmod._kve_neighbours(p, z)
    assert taken == [64.0, 64.0, 0.5]


def dense_max_q2(lam, t, sum_delta, sum_eta, chi, psi):
    """Best _gig_q2 over 21 x 21 grids in (log chi, log psi), each centred on
    the best node of the last and half its width."""
    centre = np.array([math.log(chi), math.log(psi)])
    best, width = -math.inf, 8.0
    for _ in range(60):
        grid = np.linspace(-width, width, 21)
        for dc in grid:
            for dp in grid:
                node = centre + (dc, dp)
                value = fitmod._gig_q2(lam, math.exp(node[0]),
                                       math.exp(node[1]), t, sum_delta,
                                       sum_eta, None)
                if value > best:
                    best, best_node = value, node
        centre, width = best_node, 0.5 * width
    return best


GIG_LAWS = [Gig(-0.5, 1.44, 1.44), Gig(1.3, 0.5, 2.0), Gig(-3.0, 4.0, 0.2),
            Gig(0.0, 2.0, 3.0)]


@pytest.mark.parametrize("law", GIG_LAWS, ids=str)
def test_exact_step_recovers_the_law_from_its_moments(law):
    # with the law's own E[Z] and E[1/Z] as the mean weights, the mixing
    # block is maximized at the law's (chi, psi): moment matching in the
    # exponential family of GIG laws at fixed lam
    delta_bar, eta_bar = law.raw_moment(1.0), law.raw_moment(-1.0)
    chi, psi = fitmod._chi_psi_step(law.lam, 1.0, 1.0, delta_bar, eta_bar)
    assert chi == pytest.approx(law.chi, rel=1e-9)
    assert psi == pytest.approx(law.psi, rel=1e-9)


@pytest.mark.parametrize("lam,start", [(-0.5, (1.0, 1.0)),
                                       (1.3, (0.2, 5.0)),
                                       (-3.0, (30.0, 0.01))],
                         ids=["nig", "lam_positive", "lam_negative"])
def test_exact_step_is_the_dense_search_maximum(lam, start):
    rm = synthetic_returns(1000, seed=9)
    truth = synthetic_model()
    delta, eta, _, _ = _estep(rm.values, truth.mu, truth.gamma, truth.sigma,
                              lam, *start, need_log=False)
    t, sums = rm.t, (float(delta.sum()), float(eta.sum()), None)
    new_lam, chi, psi = fitmod._update_mixing(lam, *start, t, sums, False)
    assert new_lam == lam
    got = fitmod._gig_q2(lam, chi, psi, t, *sums)
    ref = dense_max_q2(lam, t, sums[0], sums[1], *start)
    assert got >= ref - 1e-12 * abs(ref)
    assert got >= fitmod._gig_q2(lam, *start, t, *sums)


@given(lam=st.floats(-5.0, 5.0), log_chi=st.floats(-6.0, 6.0),
       log_psi=st.floats(-6.0, 6.0), log_delta=st.floats(-4.0, 4.0),
       log_prod=st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_mixing_update_never_lowers_the_objective(lam, log_chi, log_psi,
                                                  log_delta, log_prod):
    # delta_bar eta_bar >= 1 holds for any E-step weights (Cauchy-Schwarz)
    t = 500
    chi, psi = math.exp(log_chi), math.exp(log_psi)
    sum_delta = t * math.exp(log_delta)
    sum_eta = t * math.exp(log_prod - log_delta)
    sums = (sum_delta, sum_eta, None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, new_chi, new_psi = fitmod._update_mixing(lam, chi, psi, t, sums,
                                                    False)
    assert fitmod._gig_q2(lam, new_chi, new_psi, t, *sums) >= \
        fitmod._gig_q2(lam, chi, psi, t, *sums)


@pytest.mark.parametrize("lam", [-0.5, 1.3])
def test_point_mass_sums_keep_chi_psi(lam):
    # delta_bar eta_bar = 1 only when every weight comes from one point
    # mass; the optimum lies at omega -> inf, so no root brackets it
    assert fitmod._chi_psi_step(lam, 1.7, 0.3, 2.0, 0.5) == (1.7, 0.3)
    assert fitmod._update_mixing(lam, 1.7, 0.3, 100, (200.0, 50.0, None),
                                 False) == (lam, 1.7, 0.3)


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(lambda_mode="adaptive")
        with pytest.raises(ValueError):
            FitConfig(max_iters=0)
        with pytest.raises(ValueError):
            FitConfig(ll_tol=0.0)
        with pytest.raises(ValueError):
            FitConfig(identification="scale")

    @pytest.mark.parametrize("field,value", [
        ("lambda_value", math.nan), ("lambda_value", math.inf),
        ("lambda_value", True),
        pytest.param("lambda_value", 10 ** 400, id="lambda_value-10**400"),
        ("ll_tol", math.nan), ("ll_tol", math.inf), ("ll_tol", True),
        ("max_iters", True), ("max_iters", 5.0)])
    def test_unrunnable_values_name_their_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FitConfig(**{field: value})
