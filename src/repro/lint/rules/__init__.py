"""Built-in ``sc-lint`` rules.

Importing this package registers every rule with the framework
registry; the catalogue (ids, scopes, rationale) is documented in
``docs/static-analysis.md``.
"""

import repro.lint.rules.sc001_blocking  # noqa: F401
import repro.lint.rules.sc002_wire  # noqa: F401
import repro.lint.rules.sc003_metrics  # noqa: F401
import repro.lint.rules.sc004_encapsulation  # noqa: F401
import repro.lint.rules.sc005_exceptions  # noqa: F401
import repro.lint.rules.sc006_codec_sync  # noqa: F401
import repro.lint.rules.sc007_races  # noqa: F401
import repro.lint.rules.sc008_lifecycle  # noqa: F401
