import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "worked_examples.py"


def test_worked_examples_print_the_headline_values(capsys):
    # loading the script imports the public names it walks through
    spec = importlib.util.spec_from_file_location("worked_examples", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert "word 4 3 2 1 2 normalizes to a4 a3 a2 a1 a2  (d=[1, 1, 1], k=[1, 1, 0, 0])" in lines
    assert "a6 a5 a4 moves 3,0,0,1,0,1,2,0,1 to 3,0,0,0,0,1,3,0,1" in lines
    assert any(line.endswith("maps 5,0,0,0,0,0,0,0,0 to 0,0,0,0,0,0,0,0,5") for line in lines)
    assert "  a1  left: output 0,1,2,1,1,1  input 1,2,1,2,0,0" in lines
    zero = [line for line in lines if line.startswith("a2 * (")]
    assert len(zero) == 1 and zero[0].endswith(") = 0")
    assert sum(line.startswith("== ") for line in lines) == 6
