"""Names the command line needs before any stage runs: the prompt styles its
options offer and the errors it reports as exit 2; and the ChEBI identifier
check that both `lexicon` and `evaluation` use.

They live here, apart from the modules that raise them, so that importing
the CLI loads no stage module and `evaluate` does not load `lexicon`;
`lexicon`, `prompting` and `evaluation` import them from here, and each name
still resolves from its old module. This module imports no other hazardex
module.
"""

from __future__ import annotations

from enum import Enum


class PromptStyle(str, Enum):
    SIMPLE = "simple"
    STEP_BY_STEP = "step_by_step"
    PSEUDO_CODE = "pseudo_code"


class LexiconSourceError(Exception):
    """The names dump cannot be read in the expected tab-separated layout."""


class IndexFormatError(Exception):
    """An index artifact is malformed, truncated, or of another format or version."""


class TemplateError(Exception):
    """A template asset is missing or violates the placeholder contract."""


class BackendError(Exception):
    """One completion failed; the batch carries on with the other abstracts."""


class GoldFormatError(Exception):
    """The gold CSV is malformed; the message names the offending row."""


def is_chebi_id(value: str) -> bool:
    # `isdecimal` is the regex `\d`: any Unicode decimal digit, which `int` reads.
    return value.startswith("CHEBI:") and value[6:].isdecimal()
