"""What one benchmark period feeds the XML layer, recorded once."""

from types import SimpleNamespace

import pytest

from repro.parallel.spec import RunSpec, run_spec
from repro.scenario.processes import helpers
from repro.xmlkit.stx import Stylesheet
from repro.xmlkit.xsd import XsdSchema


@pytest.fixture(scope="session")
def period_xml():
    """Every document one full period of each of the two XML-heavy
    engines transformed, validated or split, copied at the call (the
    processes go on to edit some of them in place):

    * ``sheets`` — ``{id(sheet): (sheet, [documents])}``,
    * ``schemas`` — ``{id(schema): (schema, [documents])}``,
    * ``orders`` — the ``<CdbOrder>`` messages given to the splitter.
    """
    sheets, schemas, orders = {}, {}, []
    transform, validate = Stylesheet.transform, XsdSchema.validate
    split = helpers.cdb_order_to_rows

    def recording_transform(sheet, document):
        sheets.setdefault(id(sheet), (sheet, []))[1].append(document.copy())
        return transform(sheet, document)

    def recording_validate(schema, document):
        schemas.setdefault(id(schema), (schema, []))[1].append(document.copy())
        return validate(schema, document)

    def recording_split(document):
        orders.append(document.copy())
        return split(document)

    Stylesheet.transform = recording_transform
    XsdSchema.validate = recording_validate
    helpers.cdb_order_to_rows = recording_split
    try:
        for engine in ("interpreter", "eai"):
            outcome = run_spec(
                RunSpec(engine=engine, datasize=0.02, periods=1, seed=3)
            )
            assert outcome.status == "ok", outcome
    finally:
        Stylesheet.transform = transform
        XsdSchema.validate = validate
        helpers.cdb_order_to_rows = split
    return SimpleNamespace(sheets=sheets, schemas=schemas, orders=orders)
