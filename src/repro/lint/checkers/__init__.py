"""Project-specific checkers.

Importing this package populates :data:`repro.lint.base.ALL_CHECKERS`
via each module's ``@register`` decorations; the import order below is
the catalogue order shown by ``repro lint --list``.
"""

from . import schema  # noqa: F401  (SCH001)
from . import schema_flow  # noqa: F401  (SCH002)
from . import determinism  # noqa: F401  (DET001)
from . import determinism_flow  # noqa: F401  (DET002)
from . import budget_flow  # noqa: F401  (BUD002)
from . import fork_safety  # noqa: F401  (FRK001)
from . import interface  # noqa: F401  (IFC001)
from . import options  # noqa: F401  (IFC002)
from . import cli_docs  # noqa: F401  (CLI001)
