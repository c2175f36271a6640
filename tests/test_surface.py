"""The public surface and the README's Library section stay in step."""

import pathlib
import re

import ceforge

README = pathlib.Path(__file__).parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text()
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs():
    block = re.search(r"```python\n(.*?)```", _library_section(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})


def test_public_names_resolve():
    for name in ceforge.__all__:
        assert getattr(ceforge, name, None) is not None, name


def test_readme_lists_the_public_names():
    after = _library_section().split("Public names", 1)[1]
    bullets = next(p for p in after.split("\n\n") if p.startswith("- "))
    assert set(re.findall(r"`(\w+)`", bullets)) == set(ceforge.__all__)
