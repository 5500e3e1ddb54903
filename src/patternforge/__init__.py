"""patternforge: binary words avoiding the factor 1^j 0^i (0 < i < j),
built level by level with marked-pattern bookkeeping, checked against
independent counting oracles, plus a small succession-rule engine.

The package exports what each module lists in its own __all__."""

__version__ = "0.1.0"

from . import census, construction, oracle, succession, verify, words
from .words import *
from .census import *
from .construction import *
from .oracle import *
from .succession import *
from .verify import *

__all__ = list(
    dict.fromkeys(
        words.__all__
        + census.__all__
        + construction.__all__
        + oracle.__all__
        + succession.__all__
        + verify.__all__
    )
)
