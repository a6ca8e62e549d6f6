"""Progressive-learning curriculum: stage descriptors, transition
validation, encoder growth bookkeeping, and checkpoint averaging.

A valid schedule only ever tightens: noisy data gives way to clean data
with a non-increasing length-ratio limit, the direction set shrinks, the
encoder deepens, and the decoder depth stays fixed. Mixture-weight resets
are free at stage boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Direction, read_table
from .errors import InvalidScheduleError
from .sampling import MixtureWeights

RATIO_LADDER = (1.5, 2.0, 2.5, 3.0)


@dataclass(frozen=True)
class Noisy:
    """Unfiltered data tier."""


@dataclass(frozen=True)
class Clean:
    """Filtered tier at one of the ladder's length-ratio limits."""

    ratio_limit: float

    def __post_init__(self):
        if self.ratio_limit not in RATIO_LADDER:
            raise ValueError(
                f"ratio_limit must be one of {RATIO_LADDER}, got {self.ratio_limit}")


DataTier = Noisy | Clean


@dataclass(frozen=True)
class AllDirections:
    pass


@dataclass(frozen=True)
class SelectedDirections:
    directions: frozenset[Direction]

    def __post_init__(self):
        if not self.directions:
            raise ValueError("selected direction set must be non-empty")


DirectionSet = AllDirections | SelectedDirections


@dataclass(frozen=True)
class StageDescriptor:
    stage_id: str
    data_tier: DataTier
    direction_set: DirectionSet
    mixture: MixtureWeights
    encoder_layers: int
    decoder_layers: int

    def __post_init__(self):
        if self.encoder_layers < 1 or self.decoder_layers < 1:
            raise ValueError("layer counts must be >= 1")


def validate_transition(frm: StageDescriptor, to: StageDescriptor) -> list[str]:
    """Return the list of monotonicity violations (empty when the step is ok)."""
    violations = []

    if isinstance(frm.data_tier, Clean):
        if isinstance(to.data_tier, Noisy):
            violations.append("data tier loosened: clean -> noisy")
        elif to.data_tier.ratio_limit > frm.data_tier.ratio_limit:
            violations.append(
                f"ratio limit loosened: {frm.data_tier.ratio_limit} -> "
                f"{to.data_tier.ratio_limit}")

    if isinstance(frm.direction_set, SelectedDirections):
        if isinstance(to.direction_set, AllDirections):
            violations.append("direction set grew: selected -> all")
        elif not to.direction_set.directions <= frm.direction_set.directions:
            violations.append("direction set grew: new directions introduced")

    if to.encoder_layers < frm.encoder_layers:
        violations.append(
            f"encoder shrank: {frm.encoder_layers} -> {to.encoder_layers}")
    if to.decoder_layers != frm.decoder_layers:
        violations.append(
            f"decoder depth changed: {frm.decoder_layers} -> {to.decoder_layers}")

    return violations


def stage_schedule(stages: Iterable[StageDescriptor]) -> list[StageDescriptor]:
    """Validate every consecutive transition; raises on the first bad pair."""
    stages = list(stages)
    for frm, to in zip(stages, stages[1:]):
        violations = validate_transition(frm, to)
        if violations:
            raise InvalidScheduleError(f"{frm.stage_id} -> {to.stage_id}", violations)
    return stages


@dataclass(frozen=True)
class Inherited:
    """Layer carried over from an earlier stage's model."""

    stage_id: str


@dataclass(frozen=True)
class FreshRandom:
    """Layer added with random initialization; records the growth stage."""

    stage_id: str


LayerProvenance = Inherited | FreshRandom


@dataclass(frozen=True)
class ModelShape:
    encoder_layers: int
    decoder_layers: int
    layer_provenance: tuple[LayerProvenance, ...]

    def __post_init__(self):
        if len(self.layer_provenance) != self.encoder_layers:
            raise ValueError("provenance must list one entry per encoder layer")

    @classmethod
    def pretrained(cls, encoder_layers: int, decoder_layers: int) -> "ModelShape":
        return cls(encoder_layers, decoder_layers,
                   tuple(Inherited("pretrained") for _ in range(encoder_layers)))


def grow_encoder(shape: ModelShape, extra: int, stage_id: str) -> ModelShape:
    """Deepen the encoder: bottom layers keep their provenance, the new top
    layers are randomly initialized. The decoder is untouched."""
    if extra < 1:
        raise ValueError("extra must be >= 1")
    new_layers = tuple(FreshRandom(stage_id) for _ in range(extra))
    return ModelShape(
        shape.encoder_layers + extra,
        shape.decoder_layers,
        shape.layer_provenance + new_layers,
    )


ParamVector = Sequence[float]


def average_checkpoints(checkpoints: Sequence[ParamVector]) -> list[float]:
    """Elementwise arithmetic mean of equally sized parameter vectors."""
    if not checkpoints:
        raise ValueError("need at least one checkpoint")
    length = len(checkpoints[0])
    for i, ckpt in enumerate(checkpoints):
        if len(ckpt) != length:
            raise ValueError(
                f"checkpoint {i} has length {len(ckpt)}, expected {length}")
    n = len(checkpoints)
    return [sum(ckpt[j] for ckpt in checkpoints) / n for j in range(length)]


# --- schedule file (TSV, one stage per line) --------------------------------
#
# stage_id <TAB> tier <TAB> directions <TAB> lambdas <TAB> enc <TAB> dec
#   tier:       "noisy" or "clean:<ratio>"
#   directions: "all" or comma-separated "src-tgt" list
#   lambdas:    "l1,l2,l3"

def _stage(stage_id, tier_text, dirs_text, lambdas, enc, dec) -> StageDescriptor:
    if tier_text == "noisy":
        tier: DataTier = Noisy()
    elif tier_text.startswith("clean:"):
        tier = Clean(float(tier_text[len("clean:"):]))
    else:
        raise ValueError(f"unknown data tier {tier_text!r}")
    if dirs_text == "all":
        dirs: DirectionSet = AllDirections()
    else:
        dirs = SelectedDirections(frozenset(
            Direction.parse(d) for d in dirs_text.split(",")))
    return StageDescriptor(stage_id, tier, dirs, MixtureWeights.parse(lambdas),
                           int(enc), int(dec))


def load_schedule(path: str | Path) -> list[StageDescriptor]:
    """Parse and validate a schedule file."""
    return stage_schedule(read_table(path, 6, _stage))
