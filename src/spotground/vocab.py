"""Event class vocabulary.

The 17 event classes are configuration, not code: a JSON array of 17
strings whose order fixes the model's output indexing. Index 17 is the
background class and never appears in annotation files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import VocabularyError
from .jsonio import json_document

DEFAULT_VOCAB: tuple[str, ...] = (
    "Penalty",
    "Kick-off",
    "Goal",
    "Substitution",
    "Offside",
    "Shots-on target",
    "Shots-off target",
    "Clearance",
    "Ball out of play",
    "Throw-in",
    "Foul",
    "Indirect free-kick",
    "Direct free-kick",
    "Corner",
    "Yellow card",
    "Red card",
    "Yellow->red card",
)

NUM_EVENT_CLASSES = 17
BACKGROUND_INDEX = 17
NUM_OUTPUT_CLASSES = 18


def load_vocab(path: str | Path) -> list[str]:
    vocab = json_document(Path(path).read_bytes(), list, VocabularyError, f"vocabulary {path}")
    validate_vocab(vocab)
    return vocab


def save_vocab(path: str | Path, vocab: list[str] | tuple[str, ...]) -> None:
    validate_vocab(vocab)
    Path(path).write_text(json.dumps(list(vocab), indent=2) + "\n", encoding="utf-8")


def validate_vocab(vocab) -> None:
    if not isinstance(vocab, (list, tuple)) or len(vocab) != NUM_EVENT_CLASSES:
        raise VocabularyError(f"vocabulary must be {NUM_EVENT_CLASSES} class names, got {vocab!r}")
    if len(set(vocab)) != len(vocab):
        raise VocabularyError("vocabulary contains duplicate class names")
    if not all(isinstance(name, str) and name for name in vocab):
        raise VocabularyError("vocabulary entries must be non-empty strings")


def label_index(vocab: list[str] | tuple[str, ...], label: str) -> int:
    try:
        return list(vocab).index(label)
    except ValueError:
        raise VocabularyError(f"label {label!r} is not in the configured vocabulary") from None
