"""The three text files the package writes, pinned byte for byte.

A 3-row, 2-task example whose values include -0.0, the smallest subnormal,
1/3, 1e300 and integral values. The model is a linear one whose products
at these inputs each have one nonzero term, so its predictions are exact
under any BLAS.
"""

import numpy as np

from smtl.cli import main
from smtl.data import dataset_from_rows, save_dataset
from smtl.kernels import GramMatrix, KernelSpec
from smtl.linalg import PsdMatrix
from smtl.model_io import save_model
from smtl.solver import ModelState

DATASET = dataset_from_rows(
    [0, 1, 0], [1e300, 5e-324, -0.0],
    [[1 / 3, -0.0], [-0.0, 2.0], [-3.0, 0.0]])

DATASET_TEXT = (
    "task,y,x1,x2\n"
    "0,1.0000000000000001e+300,0.33333333333333331,-0\n"
    "1,4.9406564584124654e-324,-0,2\n"
    "0,-0,-3,0\n"
)

MODEL = ModelState(
    C=np.array([[1 / 3, -0.0], [1e300, 5e-324]]),
    A=PsdMatrix([[2.0, -0.0], [-0.0, 1 / 3]]),
    gram=GramMatrix(KernelSpec("linear", gamma=1 / 3),
                    np.array([[2.0, 0.0], [0.0, 4.0]])),
)

MODEL_TEXT = (
    "SMTL-MODEL v1\n"
    "[kernel]\n"
    "kind linear\n"
    "gamma 0.33333333333333331\n"
    "[X] 2 2\n"
    "2 0\n"
    "0 4\n"
    "[C] 2 2\n"
    "0.33333333333333331 -0\n"
    "1.0000000000000001e+300 4.9406564584124654e-324\n"
    "[A] 2 2\n"
    "2 -0\n"
    "-0 0.33333333333333331\n"
)

PREDICTIONS_TEXT = (
    "task,pred\n"
    "0,0.22222222222222221\n"
    "1,3.9525251667299724e-323\n"
    "0,-2\n"
)


def test_save_dataset_writes_the_long_csv_byte_for_byte(tmp_path):
    save_dataset(DATASET, tmp_path / "d.csv")
    assert (tmp_path / "d.csv").read_bytes() == DATASET_TEXT.encode()


def test_save_model_writes_the_model_file_byte_for_byte(tmp_path):
    save_model(MODEL, tmp_path / "m.txt")
    assert (tmp_path / "m.txt").read_bytes() == MODEL_TEXT.encode()


def test_predict_writes_the_predictions_byte_for_byte(tmp_path, capsys):
    (tmp_path / "d.csv").write_text(DATASET_TEXT)
    (tmp_path / "m.txt").write_text(MODEL_TEXT)
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(tmp_path / "m.txt"),
                 "--data", str(tmp_path / "d.csv"), "--out", str(out)]) == 0
    assert out.read_bytes() == PREDICTIONS_TEXT.encode()
