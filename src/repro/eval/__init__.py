"""Evaluation harnesses regenerating the paper's table, figures, and
in-text numbers."""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "figures": ["expected_fig2_sequence", "fig1_access_matrix",
                "fig2_step_table", "format_fig1"],
    "pretrained": ["standard_model", "standard_network",
                   "train_standard_network"],
    "report": ["format_paper_vs_measured", "format_table"],
    "table1": ["PAPER_TABLE1", "Table1Row", "format_table1", "run_table1"],
})
