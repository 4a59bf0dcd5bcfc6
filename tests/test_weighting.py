"""Token significance scoring, Gumbel masks, and the joint training loop."""
from __future__ import annotations

import base64
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from cotpace.synth import KEY_TOKENS, make_arith_corpus, make_keypoint_corpus
from cotpace import weighting
from cotpace.weighting import (
    MaskSample,
    WeightingConfig,
    build_model,
    forward_weights,
    read_weights,
    save_model,
    train_weighting,
    write_weights,
)
from oracles import gradient_check, gumbel_sample


@pytest.fixture(scope="module")
def arith_small():
    return make_arith_corpus(8, seed=21)


@pytest.fixture(scope="module")
def model_small(arith_small):
    return build_model(arith_small, WeightingConfig(seed=5))


@pytest.fixture(scope="module")
def keypoint_run():
    """One shared cheap training run on the planted-keypoint corpus."""
    corpus = make_keypoint_corpus(40, seed=3, length=10)
    config = WeightingConfig(alpha=0.5, epochs=150, restarts=2, seed=0)
    return corpus, config, train_weighting(corpus, config)


# --- forward_weights -------------------------------------------------------------


def test_weights_in_open_unit_interval(model_small, arith_small):
    for q in arith_small.questions:
        w = forward_weights(model_small, q.rationale_tokens)
        assert w.shape == (q.n_tokens,)
        assert np.all(w > 0.0) and np.all(w < 1.0)


def test_zeroed_output_layer_gives_exactly_half(arith_small):
    model = build_model(arith_small, WeightingConfig(seed=5))
    model.params["w2"][:] = 0.0
    model.params["b2"] = np.zeros(())
    w = forward_weights(model, ["the", "sum", "is", "4", "."])
    assert np.all(w == 0.5)


def test_weights_depend_on_context(model_small):
    base = ["first", "add", "2", "and", "3", "."]
    swapped = ["first", "add", "2", "and", "7", "."]
    w_base = forward_weights(model_small, base)
    w_swapped = forward_weights(model_small, swapped)
    assert abs(w_base[0] - w_swapped[0]) > 1e-12


def test_unknown_tokens_fall_back_to_one_bucket(model_small):
    a = forward_weights(model_small, ["zzz-unseen-1"])
    b = forward_weights(model_small, ["zzz-unseen-2"])
    assert a[0] == b[0]


# --- gumbel_sample ---------------------------------------------------------------


def test_sample_shapes_ranges_and_determinism():
    w = np.linspace(0.05, 0.95, 20)
    a = gumbel_sample(w, 1.0, seed=11)
    b = gumbel_sample(w, 1.0, seed=11)
    assert np.array_equal(a.hard, b.hard)
    assert np.array_equal(a.soft, b.soft)
    assert set(np.unique(a.hard)) <= {0, 1}
    assert np.all(a.soft > 0.0) and np.all(a.soft < 1.0)
    c = gumbel_sample(w, 1.0, seed=12)
    assert not np.array_equal(a.soft, c.soft)


def test_hard_mask_is_thresholded_soft_mask():
    w = np.full(500, 0.4)
    s = gumbel_sample(w, 0.7, seed=2)
    assert np.array_equal(s.hard, (s.soft > 0.5).astype(np.int8))


def test_sample_input_validation():
    with pytest.raises(ValueError, match="tau"):
        gumbel_sample(np.array([0.5]), 0.0, seed=0)
    with pytest.raises(ValueError):
        gumbel_sample(np.array([0.0, 0.5]), 1.0, seed=0)
    with pytest.raises(ValueError):
        gumbel_sample(np.array([1.0]), 1.0, seed=0)


def test_noise_is_g1_then_g0_from_one_stream():
    n = 13
    rng = np.random.default_rng(31)
    g1, g0 = weighting._sample_noise(n, rng)
    ref = np.random.default_rng(31)
    gumbel = lambda u: -np.log(-np.log(np.maximum(u, 1e-300)))
    assert np.array_equal(g1, gumbel(ref.random(n)))
    assert np.array_equal(g0, gumbel(ref.random(n)))
    assert rng.random() == ref.random()


def test_noise_for_several_draws_is_the_draws_one_after_another():
    # the restart score draws its masks' noise in one call
    n, draws = 11, 8
    rng = np.random.default_rng(32)
    g1, g0 = weighting._sample_noise(n, rng, draws)
    assert g1.shape == g0.shape == (draws, n)
    ref = np.random.default_rng(32)
    for d in range(draws):
        r1, r0 = weighting._sample_noise(n, ref)
        assert np.array_equal(g1[d], r1) and np.array_equal(g0[d], r0)
    assert rng.random() == ref.random()


def test_keep_rate_matches_weight_monte_carlo():
    n = 10_000
    s = gumbel_sample(np.full(n, 0.5), 1.0, seed=123)
    assert abs(float(s.hard.mean()) - 0.5) < 0.015


@pytest.mark.parametrize("w", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("tau", [0.25, 1.0, 4.0])
def test_mask_off_rate_within_three_sigma(w, tau):
    per_draw, draws = 20_000, 5
    base = int(w * 1000) * 104729 + int(tau * 100)
    off = sum(
        per_draw - int(gumbel_sample(np.full(per_draw, w), tau, seed=base + d).hard.sum())
        for d in range(draws)
    )
    n = per_draw * draws
    sigma = math.sqrt(w * (1.0 - w) / n)
    assert abs(off / n - (1.0 - w)) <= 3.0 * sigma


# --- loss terms ------------------------------------------------------------------


def mask_ratio_loss(sample: MaskSample) -> float:
    """Expected kept-token count of one draw: the sum of its soft mask
    values. The trainer charges the same sum per prefix cut instead."""
    return float(np.sum(sample.soft))


def test_mask_ratio_loss_is_expected_kept_count():
    sample = MaskSample(hard=np.array([0, 1], dtype=np.int8), soft=np.array([0.25, 0.75]))
    assert mask_ratio_loss(sample) == 1.0
    n = 7
    ones = MaskSample(hard=np.ones(n, dtype=np.int8), soft=np.full(n, 1.0 - 1e-12))
    assert abs(mask_ratio_loss(ones) - n) < 1e-9


# --- prediction loss of a visit ----------------------------------------------------
#
# The trainer's visit is the one place the masked prediction loss is computed;
# these read its prediction part lp (the gradient goes into scratch sums)
# under noise that forces the hard mask, as _noise_cases does.


def _forced_noise(hard) -> tuple[np.ndarray, np.ndarray]:
    """Noise (g1, g0) whose draw keeps exactly the tokens where hard is 1."""
    big = np.where(np.asarray(hard) == 1, 60.0, -60.0)
    return big, -big


def _prediction_loss(model, q, hard, prefixes) -> float:
    g1, g0 = _forced_noise(hard)
    _, lp, _, sample = weighting.weighting_loss_and_grads(
        model, q, g1=g1, g0=g0, prefixes=prefixes, mask_mode="hard", grads=_zero_grads(model),
        alpha=model.config.alpha,
    )
    assert np.array_equal(sample.hard, hard)
    return lp


def test_fully_masked_prefix_equals_question_only(model_small, arith_small):
    q = arith_small.questions[0]
    masked = np.zeros(q.n_tokens, dtype=np.int8)
    full = _prediction_loss(model_small, q, masked, prefixes=[q.n_tokens])
    empty = _prediction_loss(model_small, q, masked, prefixes=[0])
    assert abs(full - empty) < 1e-9


def test_uniform_classifier_gives_log_num_classes(arith_small):
    model = build_model(arith_small, WeightingConfig(seed=5))
    model.params["w_cls"][:] = 0.0
    model.params["b_cls"][:] = 0.0
    nc = len(model.classes)
    q = arith_small.questions[0]
    prefixes = [0, 1, q.n_tokens, 2]
    for label, g1, g0 in _noise_cases(q.n_tokens):
        _, lp, _, _ = weighting.weighting_loss_and_grads(
            model, q, g1=g1, g0=g0, prefixes=prefixes, mask_mode="hard", grads=_zero_grads(model),
            alpha=model.config.alpha,
        )
        assert abs(lp - len(prefixes) * math.log(nc)) < 1e-12, label


def test_masked_token_cannot_influence_prediction(arith_small):
    model = build_model(arith_small, WeightingConfig(seed=9))
    q = arith_small.questions[1]
    n = q.n_tokens
    # mask a token whose vocab row no other token of this question shares,
    # so perturbing that row can only reach the loss through the masked slot
    masked = next(i for i, t in enumerate(q.rationale_tokens) if q.rationale_tokens.count(t) == 1)
    hard = np.ones(n, dtype=np.int8)
    hard[masked] = 0
    before = _prediction_loss(model, q, hard, prefixes=[n])
    model.params["h_embed"][model.vocab[q.rationale_tokens[masked]]] += 3.0
    after = _prediction_loss(model, q, hard, prefixes=[n])
    assert abs(before - after) < 1e-9


# --- pooled cuts against the per-cut reference ----------------------------------------
#
# The trainer scores every prefix cut of a visit as one row of a (cuts x tokens)
# matrix, shifted by the fixed SCORE_CAP. The reference below is the per-cut
# form it replaced: one pooled softmax per cut, shifted by that cut's own max,
# and a second loop for the backward pass. Both must agree to rounding.


def _oracle_prefix_loss(e0, xr, s_tok, s_x, factors, k, w_cls, b_cls, cls_idx):
    f = factors[:k]
    m_star = s_x if k == 0 else max(s_x, float(s_tok[:k].max()))
    cx = math.exp(s_x - m_star)
    et = np.exp(s_tok[:k] - m_star)
    ct = f * et
    z = cx + float(ct.sum())
    ax = cx / z
    at = ct / z
    pooled = ax * xr + at @ e0[:k]
    logits = pooled @ w_cls + b_cls
    mx = float(logits.max())
    lse = mx + math.log(np.exp(logits - mx).sum())
    loss = lse - float(logits[cls_idx])
    probs = np.exp(logits - lse)
    return loss, (f, et, ct, z, ax, at, pooled, probs)


def _oracle_loss_and_grads(model, question, g1, g0, prefixes, mask_mode, alpha, unmasked_weight):
    p = model.params
    tau = model.config.tau
    sd = math.sqrt(model.config.d_embed)
    idx = model.token_rows(question.rationale_tokens)[0]
    n = idx.size
    w, (e0, x, q, k_mat, v, attn, mixed, h, z) = weighting._scorer_forward(model, idx)
    wc = np.clip(w, 1e-6, 1.0 - 1e-6)
    soft = weighting._draw_mask(wc, g1, g0, tau).soft
    hard = (soft >= 0.5).astype(np.int8)
    factors = soft if mask_mode == "soft" else hard.astype(np.float64)
    xr = question.embedding @ p["x_proj"]
    he = p["h_embed"][idx]
    s_tok, s_x, slope_tok, slope_x = weighting._pool_scores(he, xr, p["pool_q"], sd)
    cls_idx = model.classes[question.answer_text]
    lp = lm = 0.0
    caches = []
    pref_count = np.zeros(n)
    for k in prefixes:
        loss_k, cache = _oracle_prefix_loss(he, xr, s_tok, s_x, factors, k, p["w_cls"], p["b_cls"], cls_idx)
        lp += loss_k
        lm += float(np.sum(soft[:k]))
        pref_count[:k] += 1.0
        caches.append((k, cache, True, 1.0))
    loss = lp + alpha * lm
    if unmasked_weight > 0.0:
        for k in prefixes:
            loss_k, cache = _oracle_prefix_loss(he, xr, s_tok, s_x, np.ones(n), k, p["w_cls"], p["b_cls"], cls_idx)
            loss += unmasked_weight * loss_k
            caches.append((k, cache, False, unmasked_weight))
    grads = {name: np.zeros_like(arr) for name, arr in p.items()}
    d_he = np.zeros_like(he)
    d_xr = np.zeros_like(xr)
    d_stok = np.zeros(n)
    d_sx = 0.0
    d_factors = np.zeros(n)
    for k, (f, et, ct, z_norm, ax, at, pooled, probs), mask_path, scale in caches:
        dlogits = probs.copy()
        dlogits[cls_idx] -= 1.0
        dlogits *= scale
        grads["w_cls"] += np.outer(pooled, dlogits)
        grads["b_cls"] += dlogits
        dpooled = p["w_cls"] @ dlogits
        dax = float(xr @ dpooled)
        dat = he[:k] @ dpooled
        d_xr += ax * dpooled
        d_he[:k] += at[:, None] * dpooled[None, :]
        dot = ax * dax + float(at @ dat)
        dcx = (dax - dot) / z_norm
        dct = (dat - dot) / z_norm
        d_sx += dcx * (ax * z_norm)
        d_stok[:k] += dct * ct
        if mask_path:
            d_factors[:k] += dct * et
    d_sx_raw = d_sx * slope_x
    d_stok_raw = d_stok * slope_tok
    d_xr += d_sx_raw * p["pool_q"] / sd
    grads["pool_q"] += d_sx_raw * xr / sd
    d_he += np.outer(d_stok_raw, p["pool_q"]) / sd
    grads["pool_q"] += he.T @ d_stok_raw / sd
    grads["x_proj"] += np.outer(question.embedding, d_xr)
    np.add.at(grads["h_embed"], idx, d_he)
    d_soft = d_factors + alpha * pref_count
    inner = (soft > weighting.SOFT_LO) & (soft < weighting.SOFT_HI)
    d_u = d_soft * soft * (1.0 - soft) * inner
    d_wc = d_u * (1.0 / wc + 1.0 / (1.0 - wc)) / tau
    d_w = d_wc * ((w > 1e-6) & (w < 1.0 - 1e-6))
    d_z = d_w * w * (1.0 - w) * (1.0 - (z / weighting.PRE_CAP) ** 2)
    grads["w2"] += h.T @ d_z
    grads["b2"] += d_z.sum()
    d_hpre = np.outer(d_z, p["w2"]) * (1.0 - h * h)
    grads["w1"] += mixed.T @ d_hpre
    grads["b1"] += d_hpre.sum(axis=0)
    d_mixed = d_hpre @ p["w1"].T
    d_attn = d_mixed @ v.T
    d_v = attn.T @ d_mixed
    d_scores = (d_attn - (d_attn * attn).sum(axis=1, keepdims=True)) * attn
    d_q = d_scores @ k_mat / sd
    d_k = d_scores.T @ q / sd
    grads["wq"] += x.T @ d_q
    grads["wk"] += x.T @ d_k
    grads["wv"] += x.T @ d_v
    d_x = d_q @ p["wq"].T + d_k @ p["wk"].T + d_v @ p["wv"].T
    np.add.at(grads["embed"], idx, d_x)
    return loss, lp, lm, grads, MaskSample(hard=hard, soft=soft)


def _assert_close(actual, expected, what, scale=None):
    """Max abs error within 1e-12 of scale, by default the largest |expected|."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, what
    err = float(np.max(np.abs(actual - expected), initial=0.0))
    if scale is None:
        scale = float(np.max(np.abs(expected), initial=0.0))
    assert err <= 1e-12 * scale or err == 0.0, f"{what}: error {err:.3e} against scale {scale:.3e}"


def _zero_grads(model) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in model.params.items()}


def _noise_cases(n: int):
    rng = np.random.default_rng(4)
    yield "random", *weighting._sample_noise(n, rng)
    big = np.full(n, 60.0)
    yield "masks every token", -big, big
    yield "keeps every token", big, -big


@pytest.mark.parametrize("mask_mode", ["hard", "soft"])
@pytest.mark.parametrize("unmasked_weight", [0.0, 0.3])
def test_pooled_cuts_match_per_cut_reference(arith_small, mask_mode, unmasked_weight):
    model = build_model(arith_small, WeightingConfig(seed=11, unmasked_weight=unmasked_weight))
    checked = set()
    for q in arith_small.questions[:3]:
        n = q.n_tokens
        for label, g1, g0 in _noise_cases(n):
            prefixes = [0, n, 2, 2, n - 1, n]
            kwargs = dict(g1=g1, g0=g0, prefixes=prefixes, mask_mode=mask_mode, alpha=0.7)
            grads = _zero_grads(model)
            loss, lp, lm, sample = weighting.weighting_loss_and_grads(model, q, grads=grads, **kwargs)
            ref = _oracle_loss_and_grads(
                model, q, g1, g0, prefixes, mask_mode, alpha=0.7, unmasked_weight=unmasked_weight
            )
            r_loss, r_lp, r_lm, r_grads, r_sample = ref
            where = f"{q.id} {label}"
            _assert_close(loss, r_loss, f"loss {where}")
            _assert_close(lp, r_lp, f"lp {where}")
            _assert_close(lm, r_lm, f"lm {where}")
            assert np.array_equal(sample.hard, r_sample.hard), where
            assert sample.hard.dtype == r_sample.hard.dtype
            assert np.array_equal(sample.soft, r_sample.soft), where
            assert set(grads) == set(r_grads)
            # Gradients are held to the largest entry of the whole gradient:
            # with every token softly masked, d pool_q is a ~1e-12 difference
            # of O(1) terms, so both forms carry rounding at the O(1) scale.
            g_scale = max(float(np.max(np.abs(g))) for g in r_grads.values())
            for name, g in r_grads.items():
                _assert_close(grads[name], g, f"d{name} {where}", g_scale)
            checked.add(int(sample.hard.sum()))
    # the fixed noise really produced an all-masked and an all-kept draw
    assert 0 in checked and max(checked) == max(q.n_tokens for q in arith_small.questions[:3])


def test_a_visit_adds_into_the_given_sums_and_only_on_its_own_token_rows(arith_small):
    model = build_model(arith_small, WeightingConfig(seed=14))
    # a question with a repeated token, so one table row takes several rows
    q = next(q for q in arith_small.questions if len(set(q.rationale_tokens)) < q.n_tokens)
    g1, g0 = weighting._sample_noise(q.n_tokens, np.random.default_rng(5))
    kwargs = dict(g1=g1, g0=g0, prefixes=[q.n_tokens, 2, 0], mask_mode="hard", alpha=0.4)
    fresh = _zero_grads(model)
    weighting.weighting_loss_and_grads(model, q, grads=fresh, **kwargs)
    rng = np.random.default_rng(6)
    sentinel = {name: np.asarray(rng.normal(size=arr.shape)) for name, arr in model.params.items()}
    sums = {name: arr.copy() for name, arr in sentinel.items()}
    weighting.weighting_loss_and_grads(model, q, grads=sums, **kwargs)
    own = np.zeros(len(model.vocab), dtype=bool)
    own[model.token_rows(q.rationale_tokens)[0]] = True
    for name, start in sentinel.items():
        if name in ("embed", "h_embed"):
            assert np.array_equal(sums[name][~own], start[~own]), name
            assert np.array_equal(sums[name][own], start[own] + fresh[name][own]), name
            assert np.all(fresh[name][own].any(axis=1)), name
        else:
            assert np.array_equal(sums[name], start + fresh[name]), name


def test_cut_losses_match_per_cut_reference(arith_small):
    model = build_model(arith_small, WeightingConfig(seed=12))
    p = model.params
    sd = math.sqrt(model.config.d_embed)
    for q in arith_small.questions:
        n = q.n_tokens
        he = p["h_embed"][model.token_rows(q.rationale_tokens)[0]]
        xr = q.embedding @ p["x_proj"]
        s_tok, s_x, _, _ = weighting._pool_scores(he, xr, p["pool_q"], sd)
        cls_idx = model.classes[q.answer_text]
        for label, g1, g0 in _noise_cases(n):
            hard = weighting._draw_mask(np.full(n, 0.5), g1, g0, model.config.tau).hard.astype(np.float64)
            prefixes = [0, n, 1, 1, n // 2]
            expected = [
                _oracle_prefix_loss(he, xr, s_tok, s_x, hard, k, p["w_cls"], p["b_cls"], cls_idx)[0]
                for k in prefixes
            ]
            got = weighting._cut_losses(model, q, weighting._prefix_rows(prefixes, n) * hard)
            for c, (g, e) in enumerate(zip(got, expected)):
                _assert_close(g, e, f"{q.id} {label} cut {c}")


# --- gradient check ---------------------------------------------------------------


def test_analytic_gradients_match_finite_differences(model_small, arith_small):
    err = gradient_check(model_small, arith_small.questions[0], seed=0, num_params=80)
    assert err < 1e-4


def test_gradient_check_catches_corruption(model_small, arith_small):
    err = gradient_check(model_small, arith_small.questions[0], seed=0, num_params=80, corrupt=True)
    assert err >= 1e-2


def test_gradient_check_degenerate_zero_params(model_small, arith_small):
    assert gradient_check(model_small, arith_small.questions[0], seed=0, num_params=0) == 0.0


# --- training ---------------------------------------------------------------------


def test_training_is_deterministic():
    corpus = make_arith_corpus(6, seed=2)
    config = WeightingConfig(epochs=6, restarts=1, batch_size=4, seed=17)
    a = train_weighting(corpus, config)
    b = train_weighting(corpus, config)
    assert a.epoch_losses == b.epoch_losses
    assert a.restart_scores == b.restart_scores
    for qid, w in a.weights.items():
        assert np.array_equal(w, b.weights[qid])


def test_batch_step_sums_the_visits_in_batch_order(arith_small, monkeypatch):
    model = build_model(arith_small, WeightingConfig(seed=13, prefix_samples=3))
    qs = arith_small.questions
    batch = [qs[3], qs[0], qs[5], qs[0]]
    alpha = 0.35
    # the documented order: per question in batch order, its noise, then
    # its prefix cuts (the full cut first, then prefix_samples - 1 draws)
    # Each visit here gets its own zeroed sums, added into the total
    # afterwards; the batch step's shared sums must give the same bits.
    rng = np.random.default_rng(8)
    loss = pred = 0.0
    grads = _zero_grads(model)
    for q in batch:
        g1, g0 = weighting._sample_noise(q.n_tokens, rng)
        prefixes = [q.n_tokens] + rng.integers(0, q.n_tokens + 1, size=2).tolist()
        g = _zero_grads(model)
        q_loss, lp, _, _ = weighting.weighting_loss_and_grads(
            model, q, g1=g1, g0=g0, prefixes=prefixes, mask_mode="hard", grads=g, alpha=alpha
        )
        loss += q_loss
        pred += lp
        for name in grads:
            grads[name] += g[name]
    visited = []
    visit = weighting.weighting_loss_and_grads

    def counted(model, question, **kwargs):
        visited.append(question.id)
        return visit(model, question, **kwargs)

    monkeypatch.setattr(weighting, "weighting_loss_and_grads", counted)
    got_rng = np.random.default_rng(8)
    got_loss, got_pred, got_grads = weighting._batch_loss_and_grads(model, batch, got_rng, alpha)
    assert visited == [q.id for q in batch]
    assert got_loss == loss and got_pred == pred
    assert set(got_grads) == set(grads)
    for name, g in grads.items():
        assert np.array_equal(got_grads[name], g), name
    assert got_rng.random() == rng.random()


def test_trainer_takes_each_minibatch_through_the_batch_step(monkeypatch):
    corpus = make_arith_corpus(7, seed=2)
    config = WeightingConfig(epochs=3, restarts=2, batch_size=3, seed=17)
    plain = train_weighting(corpus, config)
    batches = []
    step = weighting._batch_loss_and_grads

    def counted(model, batch, rng, alpha):
        batches.append(len(batch))
        return step(model, batch, rng, alpha)

    monkeypatch.setattr(weighting, "_batch_loss_and_grads", counted)
    traced = train_weighting(corpus, config)
    assert batches == [3, 3, 1] * (config.epochs * config.restarts)
    assert traced.epoch_losses == plain.epoch_losses
    for qid, w in plain.weights.items():
        assert np.array_equal(traced.weights[qid], w)


def test_keypoint_tokens_outscore_filler(keypoint_run):
    # Directional check on the cheap shared run; the acceptance suite holds a
    # full-size run to a 0.9 ranking AUC.
    corpus, _, result = keypoint_run
    key_w, filler_w = [], []
    for q in corpus.questions:
        w = result.weights[q.id]
        for tok, wi in zip(q.rationale_tokens, w):
            (key_w if tok in KEY_TOKENS else filler_w).append(float(wi))
    assert np.mean(key_w) > np.mean(filler_w) + 0.05


def test_objective_trends_down_after_penalty_ramp(keypoint_run):
    # Masks and prefix cuts are resampled every epoch, so the recorded loss
    # carries estimator noise on top of the true trend.  Judge the trend on
    # 10-epoch block means and count an up-tick only when a block climbs more
    # than 5% above the best block seen so far, which noise alone cannot do.
    _, config, result = keypoint_run
    ramp_end = max(1, config.epochs // 5)
    tail = result.epoch_losses[ramp_end:]
    block = 10
    means = [
        float(np.mean(tail[i : i + block]))
        for i in range(0, len(tail) - len(tail) % block, block)
    ]
    assert len(means) >= 4
    upticks = 0
    best = means[0]
    for m in means[1:]:
        if m > best * 1.05:
            upticks += 1
        best = min(best, m)
    assert upticks <= 0.10 * (len(means) - 1)
    assert means[-1] < means[0]
    assert float(np.mean(tail[-block:])) < 0.9 * float(np.mean(tail[:block]))


def test_strong_ratio_penalty_shrinks_weights():
    corpus = make_keypoint_corpus(12, seed=5, length=8)
    light = train_weighting(corpus, WeightingConfig(alpha=0.5, epochs=40, restarts=1, seed=4))
    heavy = train_weighting(corpus, WeightingConfig(alpha=100.0, epochs=40, restarts=1, seed=4))
    mean_of = lambda res: np.mean([w.mean() for w in res.weights.values()])
    assert mean_of(heavy) < mean_of(light)


def test_non_finite_loss_aborts_with_diagnostic():
    corpus = make_arith_corpus(4, seed=6)
    config = WeightingConfig(lr=1e12, scorer_lr=1e12, epochs=30, restarts=1, seed=0)
    with pytest.raises(RuntimeError, match="learning rate"):
        train_weighting(corpus, config)


def test_a_nan_restart_score_never_wins(monkeypatch):
    # score < best[0] is False against a NaN, so a NaN first restart beat
    # every later one
    scores = iter([math.nan, 1.0])
    monkeypatch.setattr(weighting, "_selection_score", lambda *args: (next(scores), {}))
    config = WeightingConfig(epochs=1, restarts=2, seed=0)
    with pytest.raises(RuntimeError, match="restart 0 ended with non-finite"):
        train_weighting(make_arith_corpus(4, seed=5), config)


# --- persistence -------------------------------------------------------------------


def test_weights_round_trip(tmp_path, keypoint_run):
    corpus, _, result = keypoint_run
    path = tmp_path / "weights.jsonl"
    write_weights(result.weights, path)
    back = read_weights(path, corpus)
    assert set(back) == set(result.weights)
    for qid, w in result.weights.items():
        assert np.array_equal(back[qid], w)
    import json

    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {"id", "weights"}


def test_model_round_trip(tmp_path, model_small):
    # No stage reads weight_model.json back, so no loader exists; the file
    # must hold the scorer whole and nothing of the answer head.
    path = tmp_path / "weight_model.json"
    save_model(model_small, path)
    doc = json.loads(path.read_text())
    assert (doc["format"], doc["format_version"]) == (weighting.MODEL_FORMAT, weighting.MODEL_FORMAT_VERSION)
    assert doc.keys() == {"format", "format_version", "config", "vocab", "params"}
    assert doc["vocab"] == model_small.vocab
    assert doc["config"] == dataclasses.asdict(model_small.config)
    assert list(doc["params"]) == [name for name in model_small.params if name in weighting.SCORER_PARAMS]
    for name in weighting.SCORER_PARAMS:
        assert np.array_equal(_decode_param(doc["params"][name]), model_small.params[name]), name


def _decode_param(p: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(p["data"]), "<f8").reshape(p["shape"])


def test_save_model_encodes_one_parameter_at_a_time(tmp_path, model_small):
    # a 5,000-token table makes the writer's own copies dominate its peak
    rng = np.random.default_rng(11)
    params = dict(model_small.params)
    params["embed"] = rng.standard_normal((5000, 32))
    model = dataclasses.replace(model_small, params=params)
    written = {name: arr for name, arr in params.items() if name in weighting.SCORER_PARAMS}
    nbytes = sum(arr.nbytes for arr in written.values())
    path = tmp_path / "weight_model.json"
    tracemalloc.start()
    try:
        save_model(model, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * nbytes, (peak, nbytes)
    doc = json.loads(path.read_text())
    assert doc["params"].keys() == written.keys()
    for name, arr in written.items():
        back = _decode_param(doc["params"][name])
        assert back.shape == arr.shape and back.tobytes() == arr.tobytes(), name
