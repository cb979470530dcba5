"""Coefficient bounds for bi-univalent function classes, with a sampling oracle.

Import from the submodules: ``bikoeff.series``, ``bikoeff.classes``,
``bikoeff.caratheodory``, ``bikoeff.bounds``, ``bikoeff.oracle`` and
``bikoeff.cli``.
"""

__version__ = "0.1.0"
