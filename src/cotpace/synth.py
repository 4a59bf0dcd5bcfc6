"""Synthetic corpora: a bundled arithmetic set and a planted-keypoint set.

The arithmetic corpus ships with the package (data/synthetic50.jsonl) and
carries baked per-token logprobs, so the whole pipeline runs on it out of
the box. The keypoint corpus plants two key-code tokens among fillers;
the answer is the unordered pair, so a significance model that works must
weight exactly the planted tokens. Regenerate the bundled file with
`python -m cotpace.synth`.
"""
from __future__ import annotations

import numpy as np

from .corpus import Corpus, Question, embed_question, segment_steps
from .difficulty import beta_logprobs

KEY_TOKENS = ("K0", "K1", "K2", "K3", "K4", "K5")

_FILLERS = (
    "so", "then", "we", "just", "note", "that", "step", "take",
    "see", "now", "and", "thus", "it", "goes", "on", "fine",
    "next", "here", "look", "move", "keep", "hold", "track", "count",
    "item", "line", "mark", "plain", "clear", "steady", "after", "while",
    "again", "still", "also", "each", "part", "piece", "small", "spare",
    "extra", "round", "check", "write", "read", "tally", "carry", "rest",
)

_TOPICS = ("apples", "coins", "marbles", "pages", "points", "blocks", "cards", "shells")


def make_arith_corpus(n_questions: int = 50, seed: int = 1234, dim: int = 64) -> Corpus:
    """Small arithmetic word problems with 2-4 period-terminated steps.

    A few rationales carry decimal tokens like 19.5 to exercise the
    digit-guarded step segmentation.
    """
    rng = np.random.default_rng(seed)
    questions: list[Question] = []
    for i in range(n_questions):
        a = int(rng.integers(3, 60))
        b = int(rng.integers(2, 40))
        c = int(rng.integers(1, min(a + b, 20)))
        topic = _TOPICS[int(rng.integers(len(_TOPICS)))]
        form = int(rng.integers(3))
        total = a + b
        if form == 0:
            answer = total
            steps = [
                ["We", "add", str(a), "and", str(b), "to", "get", str(total), "."],
                ["So", "the", "answer", "is", str(total), "."],
            ]
            text = f"How many {topic} are there after adding {a} and {b}?"
        elif form == 1:
            answer = total - c
            steps = [
                ["First", "combine", str(a), "with", str(b), "reaching", str(total), "."],
                ["Then", "remove", str(c), "leaving", str(total - c), "."],
                ["So", "the", "answer", "is", str(total - c), "."],
            ]
            text = f"Starting with {a} {topic} and gaining {b}, how many remain after losing {c}?"
        else:
            answer = total + c
            half = str(total + 0.5)  # guarded decimal stays inside its step
            steps = [
                ["Start", "by", "adding", str(a), "and", str(b), "to", "get", str(total), "."],
                ["Midway", "the", "tally", "reads", half, "before", "rounding", "."],
                ["Add", str(c), "more", "to", "reach", str(total + c), "."],
                ["So", "the", "answer", "is", str(total + c), "."],
            ]
            text = f"With {a} {topic} plus {b} more and then {c} extra, what is the count?"
        tokens = [tok for step in steps for tok in step]
        questions.append(
            Question(
                id=f"q{i:03d}",
                question_text=text,
                answer_text=str(answer),
                rationale_tokens=tokens,
                step_spans=segment_steps(tokens),
                token_logprobs=beta_logprobs(rng, len(tokens)),
                embedding=embed_question(text, dim=dim),
            )
        )
    return Corpus(questions=questions, embedding_dim=dim)


def make_keypoint_corpus(
    n_questions: int = 100, seed: int = 7, length: int = 12, dim: int = 64
) -> Corpus:
    """Filler rationales with two planted key codes; the answer names the
    unordered pair. Every question shares one question text, so the only
    route to the answer runs through the key tokens. Fillers come from a
    vocabulary wide enough that no single filler recurs in most questions;
    a frequent filler would act as a usable bias feature for the answer
    head and earn itself unmasked weight it has not deserved."""
    if length < 3:
        raise ValueError("need room for two keys and at least one filler")
    rng = np.random.default_rng(seed)
    text = "identify the two key codes hidden in the reasoning"
    emb = embed_question(text, dim=dim)
    questions: list[Question] = []
    for i in range(n_questions):
        tokens = [_FILLERS[int(j)] for j in rng.integers(len(_FILLERS), size=length)]
        pos = rng.choice(length, size=2, replace=False)
        pair = rng.choice(len(KEY_TOKENS), size=2, replace=False)
        tokens[int(pos[0])] = KEY_TOKENS[int(pair[0])]
        tokens[int(pos[1])] = KEY_TOKENS[int(pair[1])]
        names = sorted([KEY_TOKENS[int(pair[0])], KEY_TOKENS[int(pair[1])]])
        questions.append(
            Question(
                id=f"kp{i:03d}",
                question_text=text,
                answer_text="-".join(names),
                rationale_tokens=tokens,
                step_spans=segment_steps(tokens),
                embedding=emb.copy(),
            )
        )
    return Corpus(questions=questions, embedding_dim=dim)


def main() -> None:
    import pathlib

    from .corpus import write_corpus

    out = pathlib.Path(__file__).parent / "data" / "synthetic50.jsonl"
    out.parent.mkdir(exist_ok=True)
    write_corpus(make_arith_corpus(), out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
