"""A report's rows in both forms.

In memory a report's ``rows`` are column blocks, each a dict from key to a
list column of one length (``rydgate.schemas.validate_report``); a JSON
report holds the rows they stand for, one object per row.
"""


def expand(blocks):
    """The rows the blocks stand for, in order, each a dict of its cells."""
    return [dict(zip(block, cells)) for block in blocks for cells in zip(*block.values())]


def in_blocks(report):
    """A parsed JSON report with each of its rows as a one-row block."""
    return dict(report, rows=[{key: [cell] for key, cell in row.items()}
                              for row in report["rows"]])
