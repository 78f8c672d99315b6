import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_as_written(capsys):
    # the README's one Python example is run as printed, so the API it shows
    # cannot drift from the package unnoticed
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.all_converged
    assert capsys.readouterr().out.startswith("True ")
