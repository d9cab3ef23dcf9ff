"""Package metadata and build script.

This file holds all of the package's metadata; there is no
``pyproject.toml``.  numpy is required: the analyses, workloads and
random streams import it unconditionally.

It also declares the optional C extension behind the backend seam:
``python setup.py build_ext --inplace`` compiles ``core/_kernels.c``
into an importable artifact.  The extension is marked ``optional`` —
a host without a C toolchain still installs fine, and the runtime
(:mod:`repro.core._cbuild`) builds or loads the kernels on demand via
ctypes anyway, so this path is a convenience, never a requirement.
"""

from setuptools import Extension, find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    ext_modules=[
        Extension(
            "repro.core._kernels",
            sources=["src/repro/core/_kernels.c"],
            extra_compile_args=["-O2", "-fwrapv"],
            define_macros=[("REPRO_BUILD_PYMODULE", "1")],
            optional=True,
        )
    ],
)
