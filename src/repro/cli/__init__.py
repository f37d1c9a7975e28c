"""The ``python -m repro`` command-line interface.

Thin argparse shell over :mod:`repro.config`: every subcommand loads one
resolved YAML document (``extends`` overlays, ``--set`` overrides,
``${var}`` interpolation), validates it through the document schemas, and
drives the matching entry point — offline runs, design-space sweeps, the
serving runtime, the serving benchmark shape, or pure validation.

Unlike the other subpackages, this one imports :func:`main` eagerly: the
function shares its name with its submodule, and importing
``repro.cli.main`` binds the submodule to the package attribute, which
would hide a lazily exported function.  The import below rebinds it.
"""

from .main import main

__all__ = ["main"]
