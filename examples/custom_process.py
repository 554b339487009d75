"""Building your own integration process with the MTM API.

DIPBench's process types are ordinary MTM definitions — this example
builds a *new* one from scratch: a replication process that receives
product-price-update messages, validates them, translates the partner's
dialect into the house schema, and fans the update out to two regional
databases in parallel.

It demonstrates the full public surface a benchmark user touches:
schemas, endpoints, XSD validation, STX translation, the operator
algebra, static process validation, the engine's cost breakdown and the
operator spans an observed engine records.

Run with::

    python examples/custom_process.py
"""

from repro.db import Column, Database, TableSchema
from repro.engine import MtmInterpreterEngine, ProcessEvent
from repro.mtm import (
    EventType,
    ExtractField,
    Fork,
    Invoke,
    Message,
    ProcessGroup,
    ProcessType,
    Receive,
    Sequence,
    Signal,
    Translation,
    Validate,
)
from repro.mtm.process import assert_valid_definition
from repro.observability import Observability, Tracer
from repro.services import DatabaseService, Envelope, Network, ServiceRegistry
from repro.xmlkit import (
    RenameRule,
    Stylesheet,
    XsdAttribute,
    XsdChild,
    XsdElement,
    XsdSchema,
    parse_xml,
)

# --------------------------------------------------------------- the landscape


def build_world():
    network = Network()
    network.add_host("IS")
    registry = ServiceRegistry(network)
    for name in ("store_north", "store_south"):
        db = Database(name)
        db.create_table(
            TableSchema(
                "price_list",
                [
                    Column("prodkey", "BIGINT", nullable=False),
                    Column("price", "DECIMAL"),
                ],
                primary_key=("prodkey",),
            )
        )
        registry.register(DatabaseService(name, "ES", db))
    return registry


# --------------------------------------------------------- the partner dialect

#: What the partner sends: <PriceUpdate item="7"><NewPrice>19.90</NewPrice>…
PARTNER_SCHEMA = XsdSchema(
    "partner_price_update",
    XsdElement(
        "PriceUpdate",
        attributes=(XsdAttribute("item", "integer", required=True),),
        children=(XsdChild(XsdElement("NewPrice", content="decimal")),),
    ),
)

#: Translate the partner dialect into the house vocabulary.
PARTNER_TO_HOUSE = Stylesheet(
    "partner_to_house",
    [
        RenameRule("/PriceUpdate", "HousePriceUpdate"),
        RenameRule("//NewPrice", "Price"),
    ],
)


# ------------------------------------------------------------------ the process


def upsert_request(store: str):
    def build(context):
        doc = context.get("msg2").xml()
        row = {
            "prodkey": int(doc.attributes["item"]),
            "price": doc.child_text("Price"),
        }
        return Envelope.update_request("price_list", [row], mode="upsert")

    return build


def build_price_replication() -> ProcessType:
    return ProcessType(
        "PRICE_REPL",
        ProcessGroup.A,
        "replicate partner price updates to both stores",
        EventType.E1_MESSAGE,
        Sequence(
            [
                Receive("msg1", expected_type="price_update"),
                Validate("msg1", PARTNER_SCHEMA),
                Translation("msg1", "msg2", PARTNER_TO_HOUSE),
                ExtractField("msg2", "key", "/HousePriceUpdate/@item",
                             convert=int),
                Fork(
                    [
                        Invoke("store_north", upsert_request("store_north"),
                               name="replicate_north"),
                        Invoke("store_south", upsert_request("store_south"),
                               name="replicate_south"),
                    ],
                    name="fan_out",
                ),
                Signal(),
            ],
            name="price_replication",
        ),
    )


def main() -> None:
    registry = build_world()
    process = build_price_replication()
    assert_valid_definition(process)  # static checks before deployment

    tracer = Tracer()
    engine = MtmInterpreterEngine(registry)
    engine.observability = Observability(tracer)
    engine.deploy(process)

    updates = [
        '<PriceUpdate item="7"><NewPrice>19.90</NewPrice></PriceUpdate>',
        '<PriceUpdate item="8"><NewPrice>5.25</NewPrice></PriceUpdate>',
        '<PriceUpdate item="7"><NewPrice>18.00</NewPrice></PriceUpdate>',
    ]
    for at, text in enumerate(updates):
        message = Message(parse_xml(text), "price_update")
        record = engine.handle_event(
            ProcessEvent("PRICE_REPL", float(at), message=message)
        )
        print(
            f"t={record.arrival:>4.1f}  status={record.status}  "
            f"C_c={record.costs.communication:.2f} "
            f"C_m={record.costs.management:.2f} "
            f"C_p={record.costs.processing:.2f}"
        )

    north = registry.lookup("store_north").database
    south = registry.lookup("store_south").database
    print("\nstore_north price_list:", north.table("price_list").scan())
    print("store_south price_list:", south.table("price_list").scan())
    assert north.table("price_list").get(7)["price"] == south.table(
        "price_list"
    ).get(7)["price"]
    print("\noperator tree of PRICE_REPL:")
    for operator in process.root.iter_tree():
        print("  ", f"{operator.kind}:{operator.name}")
    last = tracer.spans_of_kind("instance")[-1]
    print("\noperator spans of the last instance:")
    for span in tracer.spans_of_kind("operator"):
        if span.parent_id == last.span_id:
            print("  ", span.name)


if __name__ == "__main__":
    main()
