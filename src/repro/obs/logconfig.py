"""Structured logging setup shared by the CLI and the examples.

Every module in :mod:`repro.proxy` and :mod:`repro.simulation` logs
through a module-level ``logging.getLogger(__name__)``; this module owns
the one place that configures handlers, so library code never calls
``basicConfig`` and embedders keep full control of their logging tree.

The format is line-structured (``ts level logger message``) with
``key=value`` pairs in messages, grep- and machine-friendly without a
JSON dependency.
"""

from __future__ import annotations

import logging
from typing import Optional, TextIO

#: The root of the package's logger tree.
ROOT_LOGGER = "repro"

#: One line per record: timestamp, level, logger, message.
LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s %(message)s"


def configure_logging(
    verbosity: int = 0,
    stream: Optional[TextIO] = None,
    fmt: str = LOG_FORMAT,
) -> logging.Logger:
    """Configure the ``repro`` logger tree for CLI use.

    *verbosity* maps the CLI's ``-v`` count: 0 -> WARNING (quiet
    tables-only output), 1 -> INFO (lifecycle events), 2+ -> DEBUG
    (per-message protocol detail).  Returns the root package logger.

    Calling it again replaces the handler, so tests can reconfigure
    freely.
    """
    level = (
        logging.WARNING
        if verbosity <= 0
        else logging.INFO
        if verbosity == 1
        else logging.DEBUG
    )
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(level)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(fmt))
    logger.addHandler(handler)
    logger.propagate = False
    return logger
