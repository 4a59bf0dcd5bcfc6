"""Curriculum pacing for chain-of-thought distillation."""

from .corpus import Corpus, Question, embed_question, parse_corpus, segment_steps, write_corpus
from .difficulty import (
    DifficultyTable,
    compute_table,
    question_generation_difficulty,
    synthetic_logprobs,
)
from .loss_shaping import (
    LossSpec,
    StudentConfig,
    StudentTrace,
    shape_stage_loss,
    simulate_student,
)
from .schedule import (
    BudgetCurve,
    Schedule,
    budget_at,
    plan_full_schedule,
    solve_growth_rate,
)
from .selection import (
    ClusterAssignment,
    SelectionProblem,
    candidate_increments,
    kmeans_cluster,
    select_ftgp,
    value_of,
)
from .weighting import (
    MaskSample,
    TokenWeightModel,
    TrainResult,
    WeightingConfig,
    forward_weights,
    gradient_check,
    train_weighting,
)

__version__ = "0.1.0"
