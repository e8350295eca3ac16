"""Setuptools shim.

The offline environment ships setuptools 65 without the ``wheel``
package, so PEP-517 editable installs (which need ``bdist_wheel``)
fail.  Keeping a ``setup.py`` lets ``pip install -e .`` fall back to
the legacy ``setup.py develop`` path, which works without wheel.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of 'DEEP: Edge-based Dataflow Processing with "
        "Hybrid Docker Hub and Regional Registries' (IPPS 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
