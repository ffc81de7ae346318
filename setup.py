"""Project metadata; there is no ``pyproject.toml``, everything lives here.

``pip install -e . --no-build-isolation`` works offline wherever
``setuptools`` and ``wheel`` are importable (pip builds the editable wheel
with them).  Where ``wheel`` is missing — this repo's container — pip has no
fallback; use ``python setup.py develop --no-deps`` or just
``PYTHONPATH=src``.  The dependency floors are the versions the test suite
runs against.
"""

from pathlib import Path

from setuptools import find_packages, setup

version = {}
exec((Path(__file__).parent / "src" / "repro" / "version.py").read_text(), version)

setup(
    name="repro",
    version=version["__version__"],
    description=(
        "Log-based relevance feedback by coupled SVM for content-based image "
        "retrieval (Hoi, Lyu & Jin, ICDE 2005): a from-scratch reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy>=2.4", "scipy>=1.17"],
)
