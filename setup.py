"""Packaging for the Holiday Gathering reproduction.

Plain ``setup.py`` (no build-backend requirement) so that ``pip install -e .``
works on environments whose setuptools predates PEP 660 editable wheels and
on offline machines that cannot fetch build backends.

Runtime dependencies are ``networkx`` (conflict graphs) and ``numpy`` (the
trace engine, :mod:`repro.core.trace`, and the seeded random streams).
"""

from setuptools import find_packages, setup

setup(
    name="repro-holiday",
    version="1.0.0",
    description=(
        "Reproduction of 'The Family Holiday Gathering Problem or Fair and "
        "Periodic Scheduling of Independent Sets' (SPAA 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["networkx", "numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark"],
    },
    entry_points={
        "console_scripts": [
            "repro-holiday = repro.cli:main",
            # invariant-aware static analysis (repro.devtools): CI keeps
            # `repro-lint src/` at zero findings
            "repro-lint = repro.devtools.cli:main",
        ],
    },
)
