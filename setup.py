"""Packaging shim: knotcensus is pure Python and all metadata lives in
pyproject.toml.

It stays because `perfbench/run.py` builds the package in place with
`python setup.py build_ext --inplace` before it times anything; with no
extension modules declared, that command does nothing and exits 0.
"""

from setuptools import setup

setup()
