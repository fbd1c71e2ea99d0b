"""The Python example in README.md runs as written."""
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_library_example_runs():
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["yhat"].shape == (100,)
    assert namespace["choice"].m_opt >= 1
