from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("Offline Model Guard (OMG): secure and private ML on "
                 "mobile devices - full functional reproduction (DATE 2020)"),
    long_description=open("README.md").read() if __import__("os").path.exists("README.md") else "",
    long_description_content_type="text/markdown",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={"dev": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro-omg = repro.cli:main"]},
)
