import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    # the Quick start block uses only public names and must stay runnable
    text = README.read_text()
    section = text[text.index("## Quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md#quick-start", "exec"), {})
