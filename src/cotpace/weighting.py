"""Learned token significance with relaxed binary masking.

A small attention scorer maps each rationale token to a keep-probability
w in (0,1). Binary masks are drawn with the Gumbel reparameterization
(hard in the forward pass, soft values carry the gradient). Training
minimizes answer-prediction loss of a pooled classifier that only sees
unmasked prefix tokens plus the question, plus alpha times the expected
mask ratio, so the scorer learns to keep exactly the tokens the answer
depends on. All gradients are hand-derived numpy; the tests check them
against central differences on the relaxed objective.
"""
from __future__ import annotations

import base64
import dataclasses
import functools
import math

import numpy as np

from .corpus import Corpus, Question, encode, read_vectors, token_numbering, write_vectors

SOFT_LO = 1e-12
SOFT_HI = 1.0 - 1e-12
# The scorer's pre-sigmoid output is squashed to (-PRE_CAP, PRE_CAP).
# Without the cap, tokens whose score drifts past |z| ~ 8 during the early
# epochs see a vanishing sigmoid slope on every gradient path and freeze
# permanently at weight 0 or 1; capping keeps the slope at or above
# sigmoid'(PRE_CAP) so any token stays revisable for the whole run. It
# also keeps every weight inside (0.017, 0.983), so the mask's log-odds
# need no clamp.
PRE_CAP = 4.0
# Pooling scores get the same treatment with more headroom; see
# _pool_scores for why they must stay bounded. The bound also serves as
# the softmax shift in _pool_cuts.
SCORE_CAP = 12.0
# Parameters updated at the scorer rate; everything else (answer head,
# its token table, question projection, pooling) runs at the head rate.
SCORER_PARAMS = frozenset({"embed", "wq", "wk", "wv", "w1", "b1", "w2", "b2"})
# Head weights that decay each update. Spurious per-question features are
# individually weak and diffuse, so steady shrinkage erodes them faster
# than the consistently reinforced signal features; biases are exempt
# because they carry the (legitimate) class priors.
HEAD_DECAY_PARAMS = ("h_embed", "x_proj", "pool_q", "w_cls")
UNK_TOKEN = "<unk>"
# Hard-mask draws per question in a restart's selection score.
SCORE_DRAWS = 8

MODEL_FORMAT = "cotpace-weight-model"
MODEL_FORMAT_VERSION = 2


@dataclasses.dataclass
class WeightingConfig:
    """The significance model's settings; cli.PipelineConfig holds and checks their ranges."""

    alpha: float = 0.5  # mask-ratio penalty
    tau: float = 1.0  # relaxation temperature
    lr: float = 0.05  # answer-head learning rate
    scorer_lr: float = 0.005  # scorer learning rate; see train_weighting
    head_decay: float = 5e-3  # L2 shrink per update on answer-head weights
    epochs: int = 200
    batch_size: int = 8
    prefix_samples: int = 4
    restarts: int = 3  # independent runs; the best final objective wins
    unmasked_weight: float = 0.3  # weight of the always-visible predictor pass
    d_embed: int = 32
    d_hidden: int = 32
    seed: int = 0


@dataclasses.dataclass
class TokenWeightModel:
    vocab: dict[str, int]
    classes: dict[str, int]
    params: dict[str, np.ndarray]
    config: WeightingConfig
    # token sequence -> read-only (ids, distinct ids, inverse index); the
    # vocabulary never changes after the model is built, and training looks
    # up the same rationales every epoch
    _ids: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def token_rows(self, tokens: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(idx, uniq, inverse): the vocabulary row of each token, the
        distinct rows in ascending order, and each token's position in uniq."""
        key = tuple(tokens)
        rows = self._ids.get(key)
        if rows is None:
            unk = self.vocab[UNK_TOKEN]
            idx = np.asarray([self.vocab.get(t, unk) for t in tokens], dtype=np.int64)
            rows = (idx, *np.unique(idx, return_inverse=True))
            for arr in rows:
                arr.flags.writeable = False
            self._ids[key] = rows
        return rows


def build_model(corpus: Corpus, config: WeightingConfig, rng: np.random.Generator | None = None) -> TokenWeightModel:
    if rng is None:
        rng = np.random.default_rng(config.seed)
    vocab = token_numbering(corpus, UNK_TOKEN)
    classes = {a: k for k, a in enumerate(dict.fromkeys(q.answer_text for q in corpus.questions))}
    de, dh = config.d_embed, config.d_hidden
    dx = corpus.embedding_dim
    nc = len(classes)
    # fixed draw order keeps initialization reproducible across runs
    params = {
        "embed": rng.normal(0.0, 0.5, size=(len(vocab), de)),
        "wq": rng.normal(0.0, 1.0 / math.sqrt(de), size=(de, de)),
        "wk": rng.normal(0.0, 1.0 / math.sqrt(de), size=(de, de)),
        "wv": rng.normal(0.0, 1.0 / math.sqrt(de), size=(de, de)),
        "w1": rng.normal(0.0, 1.0 / math.sqrt(de), size=(de, dh)),
        "b1": np.zeros(dh),
        "w2": rng.normal(0.0, 1.0 / math.sqrt(dh), size=(dh,)),
        # start with masks mostly open: the predictor must see tokens
        # before the ratio penalty starts pruning, or training collapses
        # to the all-masked fixed point
        "b2": np.full((), 2.0),
        # the answer head reads its own token table, so head updates never
        # drag the scorer's view of a token around (and vice versa)
        "h_embed": rng.normal(0.0, 0.5, size=(len(vocab), de)),
        "x_proj": rng.normal(0.0, 1.0 / math.sqrt(dx), size=(dx, de)),
        "pool_q": rng.normal(0.0, 1.0, size=(de,)),
        "w_cls": rng.normal(0.0, 1.0 / math.sqrt(de), size=(de, nc)),
        "b_cls": np.zeros(nc),
    }
    return TokenWeightModel(vocab=vocab, classes=classes, params=params, config=config)


@functools.lru_cache(maxsize=256)
def _positional_encoding(n: int, d: int) -> np.ndarray:
    """Sinusoidal (n, d) table; cached and read-only, so every caller shares it."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / d)
    out = np.where(np.arange(d)[None, :] % 2 == 0, np.sin(angle), np.cos(angle))
    out.flags.writeable = False
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-free logistic: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _scorer_forward(model: TokenWeightModel, idx: np.ndarray):
    """Raw keep-probabilities plus every intermediate the backward needs."""
    p = model.params
    de = model.config.d_embed
    e0 = p["embed"][idx]
    x = e0 + _positional_encoding(idx.size, de)
    q = x @ p["wq"]
    k = x @ p["wk"]
    v = x @ p["wv"]
    scores = q @ k.T / math.sqrt(de)
    scores = scores - scores.max(axis=1, keepdims=True)
    ez = np.exp(scores)
    attn = ez / ez.sum(axis=1, keepdims=True)
    mixed = attn @ v
    h_pre = mixed @ p["w1"] + p["b1"]
    h = np.tanh(h_pre)
    z = PRE_CAP * np.tanh((h @ p["w2"] + p["b2"]) / PRE_CAP)
    w = _sigmoid(z)
    return w, (e0, x, q, k, v, attn, mixed, h, z)


def forward_weights(model: TokenWeightModel, tokens: list[str]) -> np.ndarray:
    """Significance w_j in (0,1) for each token."""
    w, _ = _scorer_forward(model, model.token_rows(tokens)[0])
    return w


@dataclasses.dataclass
class MaskSample:
    hard: np.ndarray  # int8 in {0,1}; used in the forward pass
    soft: np.ndarray  # float in (0,1); carries the gradient


def _sample_noise(n: int, rng: np.random.Generator, draws: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gumbel noise (g1, g0) for n tokens from 2n uniforms: g1's n, then
    g0's. With draws, one such row per draw, so each is (draws, n)."""
    shape = 2 * n if draws is None else (draws, 2 * n)
    g = -np.log(-np.log(np.maximum(rng.random(shape), 1e-300)))
    return g[..., :n], g[..., n:]


def _draw_mask(w: np.ndarray, g1: np.ndarray, g0: np.ndarray, tau: float) -> MaskSample:
    """The mask that noise (g1, g0) draws from weights w: soft values,
    and the hard mask that keeps each token whose soft value is >= 0.5."""
    soft = np.clip(_sigmoid((np.log(w) - np.log1p(-w) + g1 - g0) / tau), SOFT_LO, SOFT_HI)
    return MaskSample(hard=(soft >= 0.5).astype(np.int8), soft=soft)


def _pool_scores(e0, xr, pool_q, sd):
    """Pooling scores squashed to (-SCORE_CAP, SCORE_CAP), plus the tanh
    slopes the backward needs. Bounded scores let _pool_cuts shift every
    exp by SCORE_CAP: each term then lies in [exp(-2 SCORE_CAP), 1], so
    none underflows and the normaliser stays positive even when every
    token is masked."""
    s_tok = SCORE_CAP * np.tanh(e0 @ pool_q / (sd * SCORE_CAP))
    s_x = SCORE_CAP * math.tanh(float(xr @ pool_q) / (sd * SCORE_CAP))
    slope_tok = 1.0 - (s_tok / SCORE_CAP) ** 2
    slope_x = 1.0 - (s_x / SCORE_CAP) ** 2
    return s_tok, s_x, slope_tok, slope_x


def _prefix_rows(prefixes, n: int) -> np.ndarray:
    """(cuts, n) matrix whose row c is 1 on the tokens j < prefixes[c]."""
    cuts = np.asarray(prefixes, dtype=np.int64).reshape(-1, 1)
    return (np.arange(n) < cuts).astype(np.float64)


def _pool_cuts(e0, xr, s_tok, s_x, rows, w_cls, b_cls, cls_idx):
    """Pooled classification loss for every row of rows (R, n) at once.
    Row r pools the projected question plus each token j with its
    exp-score scaled by rows[r, j], so a prefix cut k under mask factors f
    is the row [j < k] * f (0 drops a token exactly). All scores lie below
    SCORE_CAP, so that one fixed shift replaces a per-row max; the exp of
    a dropped token is still evaluated, because its gradient carries the
    counterfactual value of unmasking it."""
    cx = math.exp(s_x - SCORE_CAP)
    et = np.exp(s_tok - SCORE_CAP)
    ct = rows * et
    z = cx + ct.sum(axis=1)
    ax = cx / z
    at = ct / z[:, None]
    pooled = ax[:, None] * xr + at @ e0
    logits = pooled @ w_cls + b_cls
    mx = logits.max(axis=1)
    lse = mx + np.log(np.exp(logits - mx[:, None]).sum(axis=1))
    losses = lse - logits[:, cls_idx]
    probs = np.exp(logits - lse[:, None])
    return losses, (cx, et, ct, z, ax, at, pooled, probs)


def _pooling_inputs(model: TokenWeightModel, question: Question, idx: np.ndarray):
    """The answer head's view of a question with token ids idx: the head's
    token rows, the projected question, _pool_scores' four values and the
    answer's class index."""
    p = model.params
    he = p["h_embed"][idx]
    xr = question.embedding @ p["x_proj"]
    scores = _pool_scores(he, xr, p["pool_q"], math.sqrt(model.config.d_embed))
    return he, xr, scores, model.classes[question.answer_text]


def _cut_losses(model: TokenWeightModel, question: Question, rows: np.ndarray) -> np.ndarray:
    """Answer NLL of each row of rows (R, n_tokens), see _pool_cuts."""
    p = model.params
    idx = model.token_rows(question.rationale_tokens)[0]
    he, xr, (s_tok, s_x, _, _), cls_idx = _pooling_inputs(model, question, idx)
    losses, _ = _pool_cuts(he, xr, s_tok, s_x, rows, p["w_cls"], p["b_cls"], cls_idx)
    return losses


def weighting_loss_and_grads(
    model: TokenWeightModel,
    question: Question,
    *,
    g1: np.ndarray,
    g0: np.ndarray,
    prefixes: list[int],
    mask_mode: str,
    grads: dict[str, np.ndarray],
    alpha: float,
):
    """(loss, lp, lm, sample): the combined loss (lp + alpha * lm plus the
    unmasked term below), its prediction and mask-ratio parts, and the
    mask drawn. The visit adds its gradient into grads, the caller's
    per-parameter sums (into embed and h_embed only on its own tokens'
    rows).

    mask_mode 'hard' is the training objective: binary masks in the
    forward pass, gradients routed through the soft values
    (straight-through). mask_mode 'soft' uses the soft values in the
    forward pass too, which makes the objective smooth, so central
    differences can check the gradient against it. alpha weighs lm (training
    ramps it up to the config value).

    The config's unmasked_weight adds that multiple of the prediction
    loss computed with every token visible. The extra term does not
    depend on the mask, so it trains only the answer head; without it, a
    token masked early is invisible to the head, the head stops valuing
    it, and the token can never earn its way back.
    """
    cfg = model.config
    unmasked_weight = cfg.unmasked_weight
    p = model.params
    sd = math.sqrt(cfg.d_embed)
    idx, uniq, inverse = model.token_rows(question.rationale_tokens)
    n = idx.size
    he, xr, (s_tok, s_x, slope_tok, slope_x), cls_idx = _pooling_inputs(model, question, idx)

    w, scorer_cache = _scorer_forward(model, idx)
    e0, x, q, k_mat, v, attn, mixed, h, z = scorer_cache
    sample = _draw_mask(w, g1, g0, cfg.tau)
    soft = sample.soft
    factors = soft if mask_mode == "soft" else sample.hard.astype(np.float64)

    # The kept-token penalty is charged per prefix over the tokens that
    # prefix exposes, so each token meets the penalty and the prediction
    # gradient in exactly the same draws. A global per-draw penalty would
    # out-muscle late tokens (rarely inside a prefix, always penalised)
    # and underweight early ones.
    prefix = _prefix_rows(prefixes, n)
    n_cuts = prefix.shape[0]
    pref_count = prefix.sum(axis=0)
    lm = float((prefix @ soft).sum())
    # one row per cut under the mask, then (if weighted) one per cut with
    # every token visible
    rows = prefix * factors
    if unmasked_weight > 0.0:
        rows = np.concatenate([rows, prefix])
    losses, cache = _pool_cuts(he, xr, s_tok, s_x, rows, p["w_cls"], p["b_cls"], cls_idx)
    lp = float(losses[:n_cuts].sum())
    loss = lp + alpha * lm + unmasked_weight * float(losses[n_cuts:].sum())
    cx, et, ct, z_norm, ax, at, pooled, probs = cache
    dlogits = probs
    dlogits[:, cls_idx] -= 1.0
    dlogits[n_cuts:] *= unmasked_weight
    dpooled = dlogits @ p["w_cls"].T
    dax = dpooled @ xr
    dat = dpooled @ he.T
    d_xr = ax @ dpooled
    d_he = at.T @ dpooled
    dot = ax * dax + (at * dat).sum(axis=1)
    dct = (dat - dot[:, None]) / z_norm[:, None]
    d_sx = cx * float(((dax - dot) / z_norm).sum())
    d_stok = (dct * ct).sum(axis=0)
    # the mask factors only scale the first n_cuts rows
    d_factors = (dct[:n_cuts] * prefix).sum(axis=0) * et
    grads["w_cls"] += pooled.T @ dlogits
    grads["b_cls"] += dlogits.sum(axis=0)
    # pooling scores, through the tanh caps
    d_sx_raw = d_sx * slope_x
    d_stok_raw = d_stok * slope_tok
    d_xr += d_sx_raw * p["pool_q"] / sd
    d_he += np.outer(d_stok_raw, p["pool_q"]) / sd
    grads["pool_q"] += (d_sx_raw * xr + he.T @ d_stok_raw) / sd
    grads["x_proj"] += np.outer(question.embedding, d_xr)
    # mask path: prediction gradient flows through the soft values in both
    # modes (straight-through for 'hard'); the ratio term is always soft.
    d_soft = d_factors + alpha * pref_count
    inner = (soft > SOFT_LO) & (soft < SOFT_HI)
    d_u = d_soft * soft * (1.0 - soft) * inner
    d_w = d_u * (1.0 / w + 1.0 / (1.0 - w)) / cfg.tau
    d_z = d_w * w * (1.0 - w)
    d_z = d_z * (1.0 - (z / PRE_CAP) ** 2)
    # scorer
    grads["w2"] += h.T @ d_z
    grads["b2"] += d_z.sum()
    d_h = np.outer(d_z, p["w2"])
    d_hpre = d_h * (1.0 - h * h)
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
    # token tables: each distinct token's rows are summed in token order
    # from zero, then added once, so the sums get the same bits as adding a
    # whole zero table scattered with np.add.at
    for name, rows in (("h_embed", d_he), ("embed", d_x)):
        acc = np.zeros((uniq.size, rows.shape[1]))
        np.add.at(acc, inverse, rows)
        grads[name][uniq] += acc
    return loss, lp, lm, sample


@dataclasses.dataclass
class TrainResult:
    weights: dict[str, np.ndarray]  # id -> final w per token
    model: TokenWeightModel
    epoch_losses: list[float]  # combined objective per epoch, winning run
    epoch_pred_losses: list[float]  # prediction component per epoch, winning run
    restart_scores: list[float] = dataclasses.field(default_factory=list)


def _ramped_alpha(config: WeightingConfig, epoch: int) -> float:
    """The ratio penalty ramps linearly to its full value over the first
    fifth of training; starting at full strength collapses every mask
    before the predictor has learned which tokens carry the answer."""
    ramp = max(1, config.epochs // 5)
    return config.alpha * min(1.0, (epoch + 1) / ramp)


def _batch_loss_and_grads(
    model: TokenWeightModel, batch: list[Question], rng: np.random.Generator, alpha: float
) -> tuple[float, float, dict[str, np.ndarray]]:
    """One minibatch: the summed loss, the summed prediction loss and the
    summed gradients of one hard-mask visit per question; each visit adds
    into the same sums. Each question draws its noise, then its prefix
    cuts, from rng in batch order."""
    prefix_samples = model.config.prefix_samples
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    batch_loss = 0.0
    batch_pred = 0.0
    for q in batch:
        g1, g0 = _sample_noise(q.n_tokens, rng)
        # one full-visibility cut per draw, the rest random: every
        # token gets at least one prediction gradient each visit
        prefixes = [q.n_tokens] + rng.integers(0, q.n_tokens + 1, size=prefix_samples - 1).tolist()
        loss, lp, _, _ = weighting_loss_and_grads(
            model, q, g1=g1, g0=g0, prefixes=prefixes, mask_mode="hard", grads=grads, alpha=alpha
        )
        batch_loss += loss
        batch_pred += lp
    return batch_loss, batch_pred, grads


def _train_once(
    corpus: Corpus,
    config: WeightingConfig,
    init_seq: np.random.SeedSequence,
    train_seq: np.random.SeedSequence,
) -> tuple[TokenWeightModel, list[float], list[float]]:
    model = build_model(corpus, config, np.random.default_rng(init_seq))
    rng = np.random.default_rng(train_seq)
    questions = corpus.questions
    nq = len(questions)
    lr_by_name = {
        name: config.scorer_lr if name in SCORER_PARAMS else config.lr
        for name in model.params
    }
    decay_factor = 1.0 - config.lr * config.head_decay
    epoch_losses: list[float] = []
    epoch_pred_losses: list[float] = []
    updated = False  # whether an update has started
    try:  # train_weighting's errstate raises on the first overflow or invalid value
        for epoch in range(config.epochs):
            alpha = _ramped_alpha(config, epoch)
            order = rng.permutation(nq)
            epoch_sum = 0.0
            epoch_pred = 0.0
            for start in range(0, nq, config.batch_size):
                batch = [questions[int(qi)] for qi in order[start : start + config.batch_size]]
                batch_loss, batch_pred, grads = _batch_loss_and_grads(model, batch, rng, alpha)
                if not math.isfinite(batch_loss):  # a Python float overflows without a word
                    raise FloatingPointError("non-finite training loss")
                updated = True
                for name in model.params:
                    model.params[name] -= (lr_by_name[name] / len(batch)) * grads[name]
                for name in HEAD_DECAY_PARAMS:
                    model.params[name] *= decay_factor
                epoch_sum += batch_loss
                epoch_pred += batch_pred
            epoch_losses.append(epoch_sum / nq)
            epoch_pred_losses.append(epoch_pred / nq)
    except FloatingPointError as exc:
        if not updated:  # so the learning rate is not the cause
            raise RuntimeError(
                f"{exc} on the first minibatch: the objective overflows at initialization;"
                " lower alpha or unmasked_weight, or check the corpus for extreme values"
            ) from None
        raise RuntimeError(
            f"{exc} at epoch {epoch}: lower the learning rate (weight_lr, scorer_lr),"
            " or alpha or unmasked_weight, which scale the gradient"
        ) from None
    return model, epoch_losses, epoch_pred_losses


def _selection_score(
    model: TokenWeightModel,
    corpus: Corpus,
    alpha: float,
    eval_seq: np.random.SeedSequence,
) -> tuple[float, dict[str, np.ndarray]]:
    """(score, weights by id): a deterministic estimate of the final objective,
    the expected answer NLL over SCORE_DRAWS fresh hard masks at full
    visibility plus alpha times the expected kept-token count, sum(weights)."""
    rng = np.random.default_rng(eval_seq)
    total = 0.0
    weights = {}
    for q in corpus.questions:
        w = weights[q.id] = forward_weights(model, q.rationale_tokens)
        total += alpha * float(np.sum(w))
        # one full-visibility row per draw
        g1, g0 = _sample_noise(q.n_tokens, rng, SCORE_DRAWS)
        hard = _draw_mask(w, g1, g0, model.config.tau).hard
        total += float(_cut_losses(model, q, hard).sum()) / SCORE_DRAWS
    return total, weights


def train_weighting(corpus: Corpus, config: WeightingConfig) -> TrainResult:
    """Seeded mini-batch training of scorer and answer head, best of
    config.restarts independent runs.

    The answer head runs at config.lr and the scorer at the (much
    smaller) config.scorer_lr. The head must track the current mask
    distribution closely so that the straight-through gradient on each
    token measures that token's real marginal value; when both sides
    move at the same speed the early epochs turn into a race whose
    winner is decided per token by initialization noise.

    Mask learning is a non-convex fight between the prediction term and
    the kept-token penalty, with two bad locally stable outcomes (prune
    everything, keep everything). Restarts draw fresh initializations and
    noise; the final objective cleanly separates the good fixed point
    from the bad ones (keep-everything pays the penalty, prune-everything
    pays the prediction loss), so the best-scoring run wins.

    One generator per restart drives init, shuffling, Gumbel noise and
    prefix draws in a fixed order, so results are bit-reproducible for a
    given seed. Aborts on an overflow or invalid value in training or a
    non-finite restart score (a learning rate too high, or extreme values).
    """
    streams = np.random.SeedSequence(config.seed).spawn(3 * config.restarts)
    best: tuple[float, dict[str, np.ndarray], TokenWeightModel, list[float], list[float]] | None = None
    scores: list[float] = []
    # the first overflow or invalid value, in training or in a score, ends the run
    with np.errstate(over="raise", invalid="raise"):
        for r in range(config.restarts):
            init_seq, train_seq, eval_seq = streams[3 * r : 3 * r + 3]
            model, epoch_losses, epoch_pred_losses = _train_once(corpus, config, init_seq, train_seq)
            try:
                score, weights = _selection_score(model, corpus, config.alpha, eval_seq)
            except FloatingPointError:
                score = math.nan
            if not math.isfinite(score):  # a first NaN score would win every comparison after it
                raise RuntimeError(
                    f"restart {r} ended with non-finite parameters or selection score;"
                    " lower the learning rate or check the corpus for extreme values"
                )
            scores.append(score)
            if best is None or score < best[0]:
                best = (score, weights, model, epoch_losses, epoch_pred_losses)
        _, weights, model, epoch_losses, epoch_pred_losses = best
    return TrainResult(
        weights=weights,
        model=model,
        epoch_losses=epoch_losses,
        epoch_pred_losses=epoch_pred_losses,
        restart_scores=scores,
    )


# --- persistence ----------------------------------------------------------


def write_weights(weights: dict[str, np.ndarray], path) -> None:
    write_vectors(weights, "weights", path)


def read_weights(path, corpus: Corpus) -> dict[str, np.ndarray]:
    """weights.jsonl for corpus: {id: weights}, one record per corpus
    question, each id once, one weight per rationale token, and every weight
    finite and in [0, 1]."""
    return read_vectors(path, corpus, "weights", "weights", "tokens", 1.0, "lies outside [0, 1]")


def save_model(model: TokenWeightModel, path) -> None:
    """The model as one JSON document: format, format_version, config,
    question_dim, vocab, classes and params, where params maps each parameter
    name to {"shape": [...], "data": base64 of the parameter's C-order
    little-endian float64 bytes}. A parameter decodes exactly with
    np.frombuffer(base64.b64decode(p["data"]), "<f8").reshape(p["shape"]).
    The parameters are encoded one at a time, so the writer holds at most one
    parameter's base64 text beside the model."""
    head = encode(
        {
            "format": MODEL_FORMAT,
            "format_version": MODEL_FORMAT_VERSION,
            "config": dataclasses.asdict(model.config),
            "question_dim": model.params["x_proj"].shape[0],
            "vocab": model.vocab,
            "classes": model.classes,
        }
    )
    with open(path, "wb") as fh:
        # the head's closing brace comes after params
        fh.write(head[:-1].encode("ascii") + b',"params":{')
        for i, (name, arr) in enumerate(model.params.items()):
            field = f'{"," if i else ""}{encode(name)}:{{"shape":{encode(arr.shape)},"data":"'
            fh.write(field.encode("ascii"))
            fh.write(base64.b64encode(np.ascontiguousarray(arr, "<f8")))
            fh.write(b'"}')
        fh.write(b"}}\n")

