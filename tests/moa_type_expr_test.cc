// Moa structural type system: the paper's schemas verbatim, structure
// extensibility, and the query expression parser.

#include <gtest/gtest.h>

#include "moa/expr.h"
#include "moa/moa_value.h"
#include "moa/structure_registry.h"
#include "moa/structure_type.h"
#include "monet/mil.h"

namespace mirror::moa {
namespace {

TEST(SchemaParserTest, PaperSection3SchemaVerbatim) {
  // The paper's TraditionalImgLib definition, exactly as printed.
  auto def = ParseSchemaDef(
      "define TraditionalimgLib as \n"
      "SET< \n"
      " TUPLE< \n"
      "  Atomic<URL>: source, \n"
      "  CONTREP<Text>: annotation \n"
      ">>;");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  EXPECT_EQ(def.value().name, "TraditionalimgLib");
  const StructType& type = *def.value().type;
  ASSERT_EQ(type.kind(), StructType::Kind::kSet);
  const StructType& tuple = *type.element();
  ASSERT_EQ(tuple.kind(), StructType::Kind::kTuple);
  ASSERT_EQ(tuple.fields().size(), 2u);
  EXPECT_EQ(tuple.fields()[0].name, "source");
  EXPECT_EQ(tuple.fields()[0].type->kind(), StructType::Kind::kAtomic);
  EXPECT_EQ(tuple.fields()[0].type->base(), BaseType::kUrl);
  EXPECT_EQ(tuple.fields()[1].name, "annotation");
  EXPECT_EQ(tuple.fields()[1].type->kind(), StructType::Kind::kContRep);
  EXPECT_EQ(tuple.fields()[1].type->base(), BaseType::kText);
}

TEST(SchemaParserTest, PaperSection5IntermediateSchema) {
  // The internal intermediate schema with a nested segment set.
  auto type = ParseStructType(
      "SET< TUPLE< Atomic<URL>: source, CONTREP<Text>: annotation, "
      "SET< TUPLE< Atomic<Image>: segment, Atomic<Vector>: RGB, "
      "Atomic<Vector>: Gabor > >: image_segments >>");
  ASSERT_TRUE(type.ok()) << type.status().ToString();
  const StructType& tuple = *type.value()->element();
  ASSERT_EQ(tuple.fields().size(), 3u);
  const StructType& segments = *tuple.fields()[2].type;
  EXPECT_EQ(segments.kind(), StructType::Kind::kSet);
  EXPECT_EQ(segments.element()->fields()[1].type->base(), BaseType::kVector);
}

TEST(SchemaParserTest, ToStringRoundTrips) {
  auto type = ParseStructType(
      "SET<TUPLE<Atomic<int>: a, LIST<TUPLE<Atomic<str>: b>>: items>>");
  ASSERT_TRUE(type.ok());
  auto reparsed = ParseStructType(type.value()->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(type.value()->Equals(*reparsed.value()));
}

TEST(SchemaParserTest, Errors) {
  EXPECT_FALSE(ParseSchemaDef("define X as BANANA<int>;").ok());
  EXPECT_FALSE(ParseSchemaDef("define as SET<TUPLE<Atomic<int>: x>>;").ok());
  EXPECT_FALSE(ParseSchemaDef("X as SET<TUPLE<Atomic<int>: x>>;").ok());
  EXPECT_FALSE(ParseStructType("TUPLE<Atomic<int> x>").ok());  // missing ':'
  EXPECT_FALSE(ParseStructType("SET<Atomic<int>").ok());       // unbalanced
  EXPECT_FALSE(ParseStructType("Atomic<quaternion>").ok());
}

TEST(StructureRegistryTest, OpenExtensibility) {
  // Register a domain-specific structure (paper §2: structural
  // extensibility) and use it in a schema.
  StructureInfo info;
  info.name = "INTERVAL2";
  info.description = "closed numeric interval as a 2-tuple";
  info.make_type = [](std::string_view) -> base::Result<StructTypePtr> {
    return StructType::Tuple(
        {{"lo", StructType::Atomic(BaseType::kDbl)},
         {"hi", StructType::Atomic(BaseType::kDbl)}});
  };
  auto status = StructureRegistry::Global().RegisterStructure(info);
  ASSERT_TRUE(status.ok()) << status.ToString();

  auto def =
      ParseSchemaDef("define Spans as SET<TUPLE<INTERVAL2: span>>;");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  const StructType& span =
      *def.value().type->element()->fields()[0].type;
  EXPECT_EQ(span.kind(), StructType::Kind::kTuple);
  EXPECT_EQ(span.FieldIndex("hi"), 1);

  // Kernel names cannot be shadowed; duplicates are rejected.
  StructureInfo clash;
  clash.name = "SET";
  clash.make_type = info.make_type;
  EXPECT_FALSE(StructureRegistry::Global().RegisterStructure(clash).ok());
  EXPECT_FALSE(StructureRegistry::Global().RegisterStructure(info).ok());
}

TEST(MoaValueTest, FactoriesAndAccessorsPerKind) {
  MoaValue i = MoaValue::Int(42);
  EXPECT_EQ(i.kind(), MoaValue::Kind::kAtomic);
  EXPECT_EQ(i.atomic().i(), 42);
  EXPECT_EQ(MoaValue::Dbl(0.5).atomic().d(), 0.5);
  EXPECT_EQ(MoaValue::Str("cat").atomic().s(), "cat");
  EXPECT_EQ(MoaValue::Atomic(monet::Value::MakeOid(7)).atomic().oid(), 7u);

  MoaValue v = MoaValue::Vector({1.5, 2.0});
  EXPECT_EQ(v.kind(), MoaValue::Kind::kVector);
  EXPECT_EQ(v.vec(), (std::vector<double>{1.5, 2.0}));

  MoaValue t = MoaValue::Tuple({MoaValue::Int(1), MoaValue::Str("a")});
  EXPECT_EQ(t.kind(), MoaValue::Kind::kTuple);
  ASSERT_EQ(t.children().size(), 2u);
  EXPECT_EQ(t.field(0).atomic().i(), 1);
  EXPECT_EQ(t.field(1).atomic().s(), "a");

  MoaValue s = MoaValue::SetOf({MoaValue::Int(3), MoaValue::Int(4)});
  EXPECT_EQ(s.kind(), MoaValue::Kind::kSet);
  ASSERT_EQ(s.elements().size(), 2u);
  EXPECT_EQ(s.elements()[1].atomic().i(), 4);
  EXPECT_EQ(&s.children(), &s.elements());

  MoaValue c = MoaValue::ContRep({"sunset", "beach"});
  EXPECT_EQ(c.kind(), MoaValue::Kind::kContRep);
  EXPECT_EQ(c.terms(), (std::vector<std::string>{"sunset", "beach"}));
}

TEST(MoaValueTest, WrongKindAccessorsReturnEmptyOrDefault) {
  const MoaValue values[] = {
      MoaValue::Int(9), MoaValue::Vector({1.0}),
      MoaValue::Tuple({MoaValue::Int(1)}),
      MoaValue::SetOf({MoaValue::Int(2)}), MoaValue::ContRep({"x"})};
  for (const MoaValue& v : values) {
    SCOPED_TRACE(v.ToString());
    if (v.kind() != MoaValue::Kind::kAtomic) {
      EXPECT_EQ(v.atomic().type(), monet::ValueType::kInt);
      EXPECT_EQ(v.atomic().i(), 0);
    }
    if (v.kind() != MoaValue::Kind::kVector) {
      EXPECT_TRUE(v.vec().empty());
    }
    if (v.kind() != MoaValue::Kind::kTuple &&
        v.kind() != MoaValue::Kind::kSet) {
      EXPECT_TRUE(v.children().empty());
      EXPECT_TRUE(v.elements().empty());
    }
    if (v.kind() != MoaValue::Kind::kContRep) {
      EXPECT_TRUE(v.terms().empty());
    }
  }
}

TEST(MoaValueTest, CopyAndMoveKeepNestedPayloads) {
  MoaValue original = MoaValue::Tuple(
      {MoaValue::Str("a long string that does not fit inline"),
       MoaValue::ContRep({"t1", "t2", "t1"}),
       MoaValue::SetOf({MoaValue::Tuple({MoaValue::Int(1),
                                         MoaValue::Vector({0.25, 0.5})}),
                        MoaValue::Tuple({MoaValue::Int(2),
                                         MoaValue::Vector({})})})});
  const std::string rendered = original.ToString();

  MoaValue copy = original;
  EXPECT_EQ(copy.ToString(), rendered);
  EXPECT_EQ(copy.field(1).terms(), original.field(1).terms());
  EXPECT_NE(&copy.field(2).elements()[0].field(1).vec(),
            &original.field(2).elements()[0].field(1).vec());
  EXPECT_EQ(copy.field(2).elements()[0].field(1).vec(),
            (std::vector<double>{0.25, 0.5}));

  MoaValue moved = std::move(copy);
  EXPECT_EQ(moved.ToString(), rendered);
  EXPECT_EQ(moved.field(2).elements()[1].field(0).atomic().i(), 2);

  std::vector<MoaValue> rows(3, original);
  rows.push_back(std::move(moved));  // regrows by moving
  for (const MoaValue& row : rows) EXPECT_EQ(row.ToString(), rendered);
  copy = rows[0];
  EXPECT_EQ(copy.ToString(), rendered);
}

TEST(MoaValueTest, NearbyDoublesPrintApartInValuesExprsAndMil) {
  // "%g" keeps six significant digits and prints both as 1.0688; the
  // shortest round-trip spelling keeps them apart (and 0.5 stays 0.5).
  const double a = 1.068797024;
  const double b = 1.068797124;
  const monet::Value va = monet::Value::MakeDbl(a);
  const monet::Value vb = monet::Value::MakeDbl(b);
  EXPECT_EQ(va.ToString(), "dbl:1.068797024");
  EXPECT_EQ(vb.ToString(), "dbl:1.068797124");
  EXPECT_EQ(monet::Value::MakeDbl(0.5).ToString(), "dbl:0.5");

  const std::string ea = Expr::Lit(va)->ToString();
  const std::string eb = Expr::Lit(vb)->ToString();
  EXPECT_EQ(ea, "1.068797024");
  EXPECT_NE(ea, eb);
  // The spelling parses back to the same literal.
  auto parsed = ParseExpr(ea);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value()->literal.d(), a);

  monet::mil::Instr ia;
  ia.op = monet::mil::OpCode::kSelectRange;
  ia.dst = 1;
  ia.src0 = 0;
  ia.imm0 = va;
  ia.imm1 = monet::Value::MakeDbl(2.0);
  monet::mil::Instr ib = ia;
  ib.imm0 = vb;
  EXPECT_NE(ia.ToString(), ib.ToString());
  EXPECT_NE(ia.ToString().find("dbl:1.068797024"), std::string::npos)
      << ia.ToString();
}

TEST(MoaValueTest, ToStringPerKind) {
  EXPECT_EQ(MoaValue::Int(-3).ToString(), "int:-3");
  EXPECT_EQ(MoaValue::Dbl(0.5).ToString(), "dbl:0.5");
  EXPECT_EQ(MoaValue::Str("cat").ToString(), "str:\"cat\"");
  EXPECT_EQ(MoaValue::Atomic(monet::Value::MakeOid(7)).ToString(), "oid:7");
  EXPECT_EQ(MoaValue::Vector({}).ToString(), "vec[]");
  EXPECT_EQ(MoaValue::Vector({1.5, 2, 3, 4}).ToString(),
            "vec[1.500000,2.000000,3.000000,4.000000]");
  EXPECT_EQ(MoaValue::Vector({1, 2, 3, 4, 5}).ToString(),
            "vec[1.000000,2.000000,3.000000,4.000000,...]");
  EXPECT_EQ(MoaValue::Tuple({}).ToString(), "<>");
  EXPECT_EQ(MoaValue::Tuple({MoaValue::Int(1), MoaValue::Str("a")}).ToString(),
            "<int:1, str:\"a\">");
  EXPECT_EQ(MoaValue::SetOf({}).ToString(), "{}");
  std::vector<MoaValue> nine;
  std::vector<std::string> nine_terms;
  for (int i = 0; i < 9; ++i) {
    nine.push_back(MoaValue::Int(i));
    nine_terms.push_back("t" + std::to_string(i));
  }
  EXPECT_EQ(MoaValue::SetOf(nine).ToString(),
            "{int:0, int:1, int:2, int:3, int:4, int:5, int:6, int:7, ...}");
  nine.pop_back();
  EXPECT_EQ(MoaValue::SetOf(nine).ToString(),
            "{int:0, int:1, int:2, int:3, int:4, int:5, int:6, int:7}");
  EXPECT_EQ(MoaValue::ContRep({}).ToString(), "contrep{}");
  EXPECT_EQ(MoaValue::ContRep(nine_terms).ToString(),
            "contrep{t0 t1 t2 t3 t4 t5 t6 t7 ...}");
  EXPECT_EQ(MoaValue::SetOf({MoaValue::Tuple({MoaValue::Int(1),
                                              MoaValue::Vector({0.25})})})
                .ToString(),
            "{<int:1, vec[0.250000]>}");
}

TEST(ExprParserTest, PaperSection3QueryVerbatim) {
  auto expr = ParseExpr(
      "map[sum(THIS)] (\n"
      "  map[getBL(THIS.annotation,\n"
      "      query, stats)] ( TraditionalimgLib ));");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  const Expr& outer = *expr.value();
  ASSERT_EQ(outer.op, Expr::Op::kMap);
  EXPECT_EQ(outer.children[0]->op, Expr::Op::kAgg);
  EXPECT_EQ(outer.children[0]->agg, AggKind::kSum);
  const Expr& inner = *outer.children[1];
  ASSERT_EQ(inner.op, Expr::Op::kMap);
  const Expr& getbl = *inner.children[0];
  ASSERT_EQ(getbl.op, Expr::Op::kGetBL);
  EXPECT_EQ(getbl.qvar, "query");
  EXPECT_EQ(getbl.statsvar, "stats");
  EXPECT_EQ(getbl.children[0]->op, Expr::Op::kField);
  EXPECT_EQ(getbl.children[0]->name, "annotation");
  EXPECT_EQ(inner.children[1]->name, "TraditionalimgLib");
}

TEST(ExprParserTest, PaperSection5QueryVerbatim) {
  auto expr = ParseExpr(
      "map [sum (THIS)] (\n"
      "  map[getBL(THIS.image,\n"
      "    query, stats)] ( ImageLibraryinternal )) ;");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  EXPECT_EQ(expr.value()->children[1]->children[0]->children[0]->name,
            "image");
}

TEST(ExprParserTest, PredicatePrecedence) {
  auto expr =
      ParseExpr("select[THIS.a < 3 and THIS.b == 'x' or THIS.c >= 2](S)");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  // 'and' binds tighter than 'or'.
  const Expr& pred = *expr.value()->children[0];
  EXPECT_EQ(pred.op, Expr::Op::kOr);
  EXPECT_EQ(pred.children[0]->op, Expr::Op::kAnd);
  EXPECT_EQ(pred.children[1]->op, Expr::Op::kCmp);
  EXPECT_EQ(pred.children[1]->cmp, CmpKind::kGe);
}

TEST(ExprParserTest, ArithmeticPrecedence) {
  auto expr = ParseExpr("map[THIS.x + THIS.y * 2](S)");
  ASSERT_TRUE(expr.ok());
  const Expr& body = *expr.value()->children[0];
  ASSERT_EQ(body.op, Expr::Op::kArith);
  EXPECT_EQ(body.arith, ArithKind::kAdd);
  EXPECT_EQ(body.children[1]->op, Expr::Op::kArith);
  EXPECT_EQ(body.children[1]->arith, ArithKind::kMul);
}

TEST(ExprParserTest, LiteralsAndTopN) {
  auto expr = ParseExpr("topN(map[THIS.x * 2.5](S), 10)");
  ASSERT_TRUE(expr.ok());
  EXPECT_EQ(expr.value()->op, Expr::Op::kTopN);
  EXPECT_EQ(expr.value()->n, 10);
  auto str = ParseExpr("select[THIS.name == 'mirror'](S)");
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(str.value()->children[0]->children[1]->literal.s(), "mirror");
}

TEST(ExprParserTest, ToStringReparses) {
  const char* queries[] = {
      "map[sum(THIS)](map[getBL(THIS.annotation, query, stats)](Lib))",
      "select[THIS.year >= 1995](Lib)",
      "topN(map[THIS.x + 1](S), 5)",
      "count(semijoin(A, B))",
  };
  for (const char* q : queries) {
    auto first = ParseExpr(q);
    ASSERT_TRUE(first.ok()) << q;
    auto second = ParseExpr(first.value()->ToString());
    ASSERT_TRUE(second.ok()) << first.value()->ToString();
    EXPECT_EQ(first.value()->ToString(), second.value()->ToString());
  }
}

TEST(ExprParserTest, Errors) {
  EXPECT_FALSE(ParseExpr("map[sum(THIS)](").ok());
  EXPECT_FALSE(ParseExpr("map[](S)").ok());
  EXPECT_FALSE(ParseExpr("getBL(THIS.a)").ok());
  EXPECT_FALSE(ParseExpr("select[THIS.x >](S)").ok());
  EXPECT_FALSE(ParseExpr("topN(S)").ok());
  EXPECT_FALSE(ParseExpr("map[sum(THIS)](S) trailing").ok());
  EXPECT_FALSE(ParseExpr("'unterminated").ok());
  // Malformed numbers come back as ParseErrors, never as a thrown
  // exception or a silently truncated literal.
  for (const char* bad :
       {"count(select[THIS.year >= .](S))",
        "count(select[THIS.year >= -.](S))",
        "count(select[THIS.year >= 99999999999999999999](S))",
        "count(select[THIS.year >= 1.2.3](S))", "topN(S, 2.5)",
        "topN(S, -1)", "topN(S, 99999999999999999999)"}) {
    auto parsed = ParseExpr(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), base::StatusCode::kParseError) << bad;
  }
  EXPECT_TRUE(ParseExpr("topN(S, 0)").ok());
  EXPECT_TRUE(ParseExpr("count(select[THIS.year >= +.5](S))").ok());
}

}  // namespace
}  // namespace mirror::moa
