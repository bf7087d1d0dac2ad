"""Setuptools shim.

The canonical metadata lives in ``pyproject.toml``; this file exists so the
package can be installed in environments without the ``wheel`` package
(``python setup.py develop`` needs only setuptools).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
