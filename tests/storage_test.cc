// Unit tests for the storage layer: Value semantics, Schema/Dataset,
// and all four on-disk formats round-tripping; also Result's value
// accessors.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "storage/colpack.h"
#include "storage/csv.h"
#include "storage/dataset.h"
#include "storage/delta.h"
#include "storage/json.h"
#include "storage/value.h"
#include "storage/xml.h"
#include "support/fixtures.h"

namespace cleanm {
namespace {

using testsupport::MakeFlatDataset;

// ---- Result ----

struct Batch {
  std::vector<int> items;
};

Result<Batch> MakeBatch() { return Batch{{1, 2, 3}}; }

TEST(ResultTest, ValueOrDieOnTemporaryReturnsTheValue) {
  // On a temporary, ValueOrDie hands the value out by value, so nothing
  // can keep a reference into the Result after it is destroyed.
  static_assert(std::is_same_v<decltype(MakeBatch().ValueOrDie()), Batch>);
  Result<Batch> named = MakeBatch();
  static_assert(std::is_same_v<decltype(named.ValueOrDie()), Batch&>);

  // The range-for binds the temporary's member, so the moved-out value
  // lives for the whole loop (an asan build sees a dangling read here if
  // ValueOrDie returns a reference into the destroyed Result).
  std::vector<int> seen;
  for (int item : MakeBatch().ValueOrDie().items) seen.push_back(item);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(named.ValueOrDie().items.size(), 3u);
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(true).AsBool(), true);
  EXPECT_EQ(Value(int64_t{42}).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, MistypedAccessThrowsDescriptiveCoercionError) {
  // A wrong-type read must be an ordinary catchable exception naming both
  // types (quarantinable on the pipelined path), not a bare
  // std::bad_variant_access.
  try {
    (void)Value("not a number").ToDouble();
    FAIL() << "expected ValueCoercionError";
  } catch (const ValueCoercionError& e) {
    EXPECT_NE(std::string(e.what()).find("string"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("numeric"), std::string::npos);
  }
  EXPECT_THROW((void)Value(int64_t{1}).AsString(), ValueCoercionError);
  EXPECT_THROW((void)Value::Null().AsList(), ValueCoercionError);
  EXPECT_THROW((void)Value(2.5).AsInt(), ValueCoercionError);
}

TEST(ValueTest, EqualsIsTypeStrict) {
  EXPECT_TRUE(Value(int64_t{1}).Equals(Value(int64_t{1})));
  EXPECT_FALSE(Value(int64_t{1}).Equals(Value(1.0)));
  EXPECT_TRUE(Value::Null().Equals(Value::Null()));
  EXPECT_FALSE(Value("a").Equals(Value("b")));
}

TEST(ValueTest, CompareIsNumericAcrossIntDouble) {
  EXPECT_EQ(Value(int64_t{1}).Compare(Value(1.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(2.0)), 0);
  EXPECT_GT(Value(3.5).Compare(Value(int64_t{3})), 0);
}

TEST(ValueTest, CompareOrdersByTypeRank) {
  EXPECT_LT(Value::Null().Compare(Value(false)), 0);
  EXPECT_LT(Value(true).Compare(Value(int64_t{0})), 0);
  EXPECT_LT(Value(int64_t{5}).Compare(Value("a")), 0);
}

TEST(ValueTest, NestedEqualityAndHash) {
  Value l1(ValueList{Value(int64_t{1}), Value("x")});
  Value l2(ValueList{Value(int64_t{1}), Value("x")});
  Value l3(ValueList{Value(int64_t{1}), Value("y")});
  EXPECT_TRUE(l1.Equals(l2));
  EXPECT_FALSE(l1.Equals(l3));
  EXPECT_EQ(l1.Hash(), l2.Hash());
  EXPECT_NE(l1.Hash(), l3.Hash());

  Value s1(ValueStruct{{"a", Value(int64_t{1})}});
  Value s2(ValueStruct{{"a", Value(int64_t{1})}});
  Value s3(ValueStruct{{"b", Value(int64_t{1})}});
  EXPECT_TRUE(s1.Equals(s2));
  EXPECT_FALSE(s1.Equals(s3));
}

TEST(ValueTest, StructFieldLookup) {
  Value s(ValueStruct{{"name", Value("alice")}, {"age", Value(int64_t{30})}});
  auto name = s.GetField("name");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name.value().AsString(), "alice");
  EXPECT_FALSE(s.GetField("missing").ok());
  EXPECT_FALSE(Value(int64_t{1}).GetField("x").ok());
}

TEST(ValueTest, ToStringRendersNestedJson) {
  Value v(ValueStruct{{"xs", Value(ValueList{Value(int64_t{1}), Value("a")})}});
  EXPECT_EQ(v.ToString(), "{\"xs\":[1,\"a\"]}");
  const std::pair<Value, const char*> goldens[] = {
      {Value::Null(), "null"},
      {Value(true), "true"},
      {Value(false), "false"},
      {Value(int64_t{INT64_MIN}), "-9223372036854775808"},
      {Value(int64_t{-42}), "-42"},
      // The shortest %g form that round-trips, marked as a double.
      {Value(60.0), "6e+01"},
      {Value(0.1), "0.1"},
      {Value(-0.0), "-0.0"},
      {Value(1e300), "1e+300"},
      {Value(1e-7), "1e-07"},
      {Value("plain"), "plain"},
      {Value(ValueList{Value("plain")}), "[\"plain\"]"},
      {Value(ValueList{}), "[]"},
      {Value(ValueStruct{}), "{}"},
      {Value(ValueList{Value(ValueStruct{{"a", Value(int64_t{1})}}),
                       Value(ValueStruct{{"a", Value(2.5)}, {"b", Value("x")}})}),
       "[{\"a\":1},{\"a\":2.5,\"b\":\"x\"}]"},
  };
  for (const auto& [value, expected] : goldens) EXPECT_EQ(value.ToString(), expected);
}

TEST(ValueTest, ListCompareIsLexicographic) {
  Value a(ValueList{Value(int64_t{1}), Value(int64_t{2})});
  Value b(ValueList{Value(int64_t{1}), Value(int64_t{3})});
  Value c(ValueList{Value(int64_t{1})});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_LT(c.Compare(a), 0);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(SchemaTest, IndexOfAndHasField) {
  Schema s{{"a", ValueType::kInt}, {"b", ValueType::kString}};
  EXPECT_EQ(s.IndexOf("a").ValueOrDie(), 0u);
  EXPECT_EQ(s.IndexOf("b").ValueOrDie(), 1u);
  EXPECT_FALSE(s.IndexOf("c").ok());
  EXPECT_TRUE(s.HasField("b"));
  EXPECT_FALSE(s.HasField("z"));
}

TEST(DatasetTest, ValidateCatchesRaggedRows) {
  Dataset d(Schema{{"a", ValueType::kInt}});
  d.Append({Value(int64_t{1})});
  EXPECT_TRUE(d.Validate().ok());
  d.Append({Value(int64_t{1}), Value(int64_t{2})});
  EXPECT_FALSE(d.Validate().ok());
}

TEST(DatasetTest, FlattenListColumn) {
  Dataset d(Schema{{"title", ValueType::kString}, {"authors", ValueType::kList}});
  d.Append({Value("p1"), Value(ValueList{Value("a"), Value("b")})});
  d.Append({Value("p2"), Value(ValueList{Value("c")})});
  auto flat = FlattenListColumn(d, "authors").ValueOrDie();
  ASSERT_EQ(flat.num_rows(), 3u);
  EXPECT_EQ(flat.row(0)[1].AsString(), "a");
  EXPECT_EQ(flat.row(1)[1].AsString(), "b");
  EXPECT_EQ(flat.row(2)[1].AsString(), "c");
  EXPECT_EQ(flat.row(1)[0].AsString(), "p1");
}

using FormatRoundTripTest = testsupport::TempDirTest;

TEST_F(FormatRoundTripTest, CsvRoundTrip) {
  const auto d = MakeFlatDataset();
  ASSERT_TRUE(WriteCsv(d, Path("t.csv")).ok());
  auto back = ReadCsv(Path("t.csv")).ValueOrDie();
  ASSERT_EQ(back.num_rows(), d.num_rows());
  EXPECT_EQ(back.row(1)[1].AsString(), "bob,jr");
  EXPECT_EQ(back.row(2)[1].AsString(), "carol \"cc\"");
  EXPECT_EQ(back.row(0)[0].AsInt(), 1);
  EXPECT_DOUBLE_EQ(back.row(1)[2].AsDouble(), 1.25);
  EXPECT_TRUE(back.row(3)[1].is_null());
}

TEST_F(FormatRoundTripTest, CsvRejectsNestedColumns) {
  Dataset d(Schema{{"xs", ValueType::kList}});
  d.Append({Value(ValueList{Value(int64_t{1})})});
  EXPECT_FALSE(WriteCsv(d, Path("bad.csv")).ok());
}

TEST(CsvTest, ParsesWithoutHeader) {
  CsvOptions opts;
  opts.has_header = false;
  auto d = ParseCsvString("1,foo\n2,bar\n", opts).ValueOrDie();
  ASSERT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.schema().field(0).name, "f0");
  EXPECT_EQ(d.row(1)[1].AsString(), "bar");
}

TEST(CsvTest, RejectsRaggedRecords) {
  EXPECT_FALSE(ParseCsvString("a,b\n1,2\n3\n").ok());
}

TEST(JsonTest, ParsesScalarsAndNesting) {
  auto v = ParseJson(R"({"a":1,"b":[1.5,"x",null],"c":{"d":true}})").ValueOrDie();
  ASSERT_EQ(v.type(), ValueType::kStruct);
  EXPECT_EQ(v.GetField("a").ValueOrDie().AsInt(), 1);
  const auto& list = v.GetField("b").ValueOrDie().AsList();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[0].AsDouble(), 1.5);
  EXPECT_TRUE(list[2].is_null());
  EXPECT_TRUE(v.GetField("c").ValueOrDie().GetField("d").ValueOrDie().AsBool());
}

TEST(JsonTest, ParsesEscapes) {
  auto v = ParseJson(R"("a\"b\n\t\\")").ValueOrDie();
  EXPECT_EQ(v.AsString(), "a\"b\n\t\\");
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());
  EXPECT_FALSE(ParseJson(R"("\u12")").ok());    // truncated \u escape
  EXPECT_FALSE(ParseJson(R"("\u12zq")").ok());  // non-hex digits
}

TEST(JsonTest, DecodesUnicodeEscapesToUtf8) {
  // ASCII stays single-byte.
  EXPECT_EQ(ParseJson(R"("\u0041")").ValueOrDie().AsString(), "A");
  // 2-byte sequence: U+00E9 (e-acute).
  EXPECT_EQ(ParseJson(R"("\u00E9")").ValueOrDie().AsString(), "\xC3\xA9");
  // 3-byte sequence: U+20AC (euro sign), mixed with literal text.
  EXPECT_EQ(ParseJson(R"("price: \u20AC5")").ValueOrDie().AsString(),
            "price: \xE2\x82\xAC" "5");
  // Astral plane via surrogate pair: U+1F600 (grinning face).
  EXPECT_EQ(ParseJson(R"("\uD83D\uDE00")").ValueOrDie().AsString(),
            "\xF0\x9F\x98\x80");
}

TEST(JsonTest, LoneSurrogatesDecodeToReplacementCharacter) {
  const std::string replacement = "\xEF\xBF\xBD";  // U+FFFD
  // High surrogate at end of string / before literal text / before a
  // non-surrogate escape; low surrogate with no preceding high one.
  EXPECT_EQ(ParseJson(R"("\uD83D")").ValueOrDie().AsString(), replacement);
  EXPECT_EQ(ParseJson(R"("\uD83Dx")").ValueOrDie().AsString(), replacement + "x");
  EXPECT_EQ(ParseJson(R"("\uD83DA")").ValueOrDie().AsString(),
            replacement + "A");
  EXPECT_EQ(ParseJson(R"("\uDE00")").ValueOrDie().AsString(), replacement);
}

TEST(JsonTest, UnicodeStringsRoundTripThroughWriter) {
  // The writer emits non-ASCII bytes raw, so decoded escapes round-trip
  // (re-reading yields the identical UTF-8 string) for BMP and astral
  // characters alike (U+1D11E, musical G clef, needs a surrogate pair).
  for (const char* text : {R"("caf\u00E9")", R"("\u20AC 42")",
                           R"("\uD83D\uDE00 ok \uD834\uDD1E")"}) {
    const Value decoded = ParseJson(text).ValueOrDie();
    const Value again = ParseJson(WriteJson(decoded)).ValueOrDie();
    EXPECT_EQ(again.AsString(), decoded.AsString()) << text;
  }
}

TEST_F(FormatRoundTripTest, JsonLinesRoundTripWithNesting) {
  Dataset d(Schema{{"title", ValueType::kString}, {"authors", ValueType::kList}});
  d.Append({Value("p1"), Value(ValueList{Value("a"), Value("b")})});
  d.Append({Value("p2"), Value(ValueList{Value("c")})});
  ASSERT_TRUE(WriteJsonLines(d, Path("t.jsonl")).ok());
  auto back = ReadJsonLines(Path("t.jsonl")).ValueOrDie();
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.row(0)[1].AsList().size(), 2u);
  EXPECT_EQ(back.row(0)[1].AsList()[1].AsString(), "b");
}

TEST(JsonLinesTest, AlignsHeterogeneousKeys) {
  auto d = ParseJsonLinesString("{\"a\":1}\n{\"b\":\"x\"}\n").ValueOrDie();
  ASSERT_EQ(d.schema().num_fields(), 2u);
  EXPECT_TRUE(d.row(0)[1].is_null());
  EXPECT_TRUE(d.row(1)[0].is_null());
}

TEST(XmlTest, ParsesRepeatedFieldsAsLists) {
  const std::string xml = R"(<dblp>
    <article>
      <title>Paper one</title>
      <author>A B</author>
      <author>C D</author>
      <year>2001</year>
    </article>
    <article>
      <title>Paper two &amp; more</title>
      <author>E F</author>
    </article>
  </dblp>)";
  auto d = ParseXmlString(xml).ValueOrDie();
  ASSERT_EQ(d.num_rows(), 2u);
  const size_t author = d.schema().IndexOf("author").ValueOrDie();
  ASSERT_EQ(d.row(0)[author].type(), ValueType::kList);
  EXPECT_EQ(d.row(0)[author].AsList()[1].AsString(), "C D");
  EXPECT_EQ(d.row(1)[author].AsString(), "E F");
  const size_t title = d.schema().IndexOf("title").ValueOrDie();
  EXPECT_EQ(d.row(1)[title].AsString(), "Paper two & more");
}

TEST_F(FormatRoundTripTest, XmlRoundTrip) {
  Dataset d(Schema{{"title", ValueType::kString}, {"author", ValueType::kList}});
  d.Append({Value("p <1>"), Value(ValueList{Value("a"), Value("b")})});
  ASSERT_TRUE(WriteXml(d, Path("t.xml")).ok());
  auto back = ReadXml(Path("t.xml")).ValueOrDie();
  ASSERT_EQ(back.num_rows(), 1u);
  EXPECT_EQ(back.row(0)[0].AsString(), "p <1>");
  EXPECT_EQ(back.row(0)[1].AsList().size(), 2u);
}

TEST(XmlTest, RejectsMismatchedTags) {
  EXPECT_FALSE(ParseXmlString("<a><b><c>x</d></b></a>").ok());
}

TEST_F(FormatRoundTripTest, ColpackRoundTripFlat) {
  const auto d = MakeFlatDataset();
  ASSERT_TRUE(WriteColpack(d, Path("t.cpk")).ok());
  auto back = ReadColpack(Path("t.cpk")).ValueOrDie();
  ASSERT_EQ(back.num_rows(), d.num_rows());
  for (size_t i = 0; i < d.num_rows(); i++) {
    for (size_t c = 0; c < d.schema().num_fields(); c++) {
      EXPECT_TRUE(back.row(i)[c].Equals(d.row(i)[c]))
          << "row " << i << " col " << c;
    }
  }
}

TEST_F(FormatRoundTripTest, ColpackRoundTripNested) {
  Dataset d(Schema{{"title", ValueType::kString}, {"authors", ValueType::kList}});
  d.Append({Value("p1"), Value(ValueList{Value("a"), Value("b")})});
  d.Append({Value("p2"), Value::Null()});
  ASSERT_TRUE(WriteColpack(d, Path("n.cpk")).ok());
  auto back = ReadColpack(Path("n.cpk")).ValueOrDie();
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.row(0)[1].AsList()[0].AsString(), "a");
  EXPECT_TRUE(back.row(1)[1].is_null());
}

TEST_F(FormatRoundTripTest, ColpackDictionaryCompressesRepeatedStrings) {
  // 1000 rows over 3 distinct strings: the dictionary-coded file must be
  // much smaller than the CSV.
  Dataset d(Schema{{"city", ValueType::kString}});
  const char* cities[] = {"Lausanne", "Geneva", "Zurich"};
  for (int i = 0; i < 1000; i++) d.Append({Value(cities[i % 3])});
  ASSERT_TRUE(WriteColpack(d, Path("dict.cpk")).ok());
  ASSERT_TRUE(WriteCsv(d, Path("dict.csv")).ok());
  const auto cpk_size = std::filesystem::file_size(Path("dict.cpk"));
  const auto csv_size = std::filesystem::file_size(Path("dict.csv"));
  EXPECT_LT(cpk_size, csv_size);
}

// ---- TableEpoch::Collect ----

Row KeyRow(int64_t key) { return {Value(key)}; }

/// An epoch started at generation 5 over base rows {1, 2}: the deltas
/// produce generations 6 (add 3), 7 (remove 3, add 4) and 8 (remove base
/// row 1).
TableEpoch SampleEpoch() {
  TableEpoch epoch;
  Dataset base(Schema{{"k", ValueType::kInt}});
  base.Append(KeyRow(1));
  base.Append(KeyRow(2));
  epoch.base = std::make_shared<const Dataset>(std::move(base));
  epoch.start = 5;
  epoch.deltas.push_back(std::make_shared<const TableDelta>(TableDelta{{KeyRow(3)}, {}}));
  epoch.deltas.push_back(
      std::make_shared<const TableDelta>(TableDelta{{KeyRow(4)}, {KeyRow(3)}}));
  epoch.deltas.push_back(std::make_shared<const TableDelta>(TableDelta{{}, {KeyRow(1)}}));
  return epoch;
}

TEST(TableEpochTest, AddThenRemoveInsideOneWindowNetsOut) {
  const TableEpoch epoch = SampleEpoch();
  std::vector<Row> added, removed;
  ASSERT_TRUE(epoch.Collect(5, 7, &added, &removed));
  EXPECT_EQ(added, (std::vector<Row>{KeyRow(4)}));
  EXPECT_TRUE(removed.empty());

  // A window that starts after the add sees the row as removed.
  added.clear();
  ASSERT_TRUE(epoch.Collect(6, 7, &added, &removed));
  EXPECT_EQ(added, (std::vector<Row>{KeyRow(4)}));
  EXPECT_EQ(removed, (std::vector<Row>{KeyRow(3)}));
}

TEST(TableEpochTest, RemovingABaseRowIsReported) {
  const TableEpoch epoch = SampleEpoch();
  std::vector<Row> added, removed;
  ASSERT_TRUE(epoch.Collect(7, 8, &added, &removed));
  EXPECT_TRUE(added.empty());
  EXPECT_EQ(removed, (std::vector<Row>{KeyRow(1)}));
}

TEST(TableEpochTest, FullAndEmptyWindows) {
  const TableEpoch epoch = SampleEpoch();
  std::vector<Row> added, removed;
  ASSERT_TRUE(epoch.Collect(5, 8, &added, &removed));
  EXPECT_EQ(added, (std::vector<Row>{KeyRow(4)}));
  EXPECT_EQ(removed, (std::vector<Row>{KeyRow(1)}));

  for (uint64_t g = 5; g <= 8; g++) {
    std::vector<Row> none_added, none_removed;
    ASSERT_TRUE(epoch.Collect(g, g, &none_added, &none_removed)) << g;
    EXPECT_TRUE(none_added.empty()) << g;
    EXPECT_TRUE(none_removed.empty()) << g;
  }
}

TEST(TableEpochTest, WindowsOutsideTheEpochAreRefusedAndWriteNothing) {
  const TableEpoch epoch = SampleEpoch();
  const std::vector<Row> sentinel = {KeyRow(-1)};
  for (const auto& [from, to] : {std::pair<uint64_t, uint64_t>{4, 6}, {4, 8}, {5, 9},
                                 {8, 9}, {0, 1}}) {
    std::vector<Row> added = sentinel, removed = sentinel;
    EXPECT_FALSE(epoch.Collect(from, to, &added, &removed)) << from << ".." << to;
    EXPECT_EQ(added, sentinel) << from << ".." << to;
    EXPECT_EQ(removed, sentinel) << from << ".." << to;
  }
}

// ---- Empty-input edge cases ----

TEST(CsvTest, EmptyInputs) {
  // A fully empty file has no header row to name columns: error.
  EXPECT_FALSE(ParseCsvString("").ok());
  // Header-only: zero rows, schema from the header.
  auto header_only = ParseCsvString("a,b\n").ValueOrDie();
  EXPECT_EQ(header_only.num_rows(), 0u);
  EXPECT_EQ(header_only.schema().num_fields(), 2u);
  // Headerless empty text: a legitimate zero-row, zero-column dataset.
  CsvOptions opts;
  opts.has_header = false;
  auto empty = ParseCsvString("", opts).ValueOrDie();
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(empty.schema().num_fields(), 0u);
}

TEST(JsonLinesTest, EmptyInputs) {
  auto empty = ParseJsonLinesString("").ValueOrDie();
  EXPECT_EQ(empty.num_rows(), 0u);
  // Blank lines are skipped, not parsed as records.
  auto blanks = ParseJsonLinesString("\n\n").ValueOrDie();
  EXPECT_EQ(blanks.num_rows(), 0u);
}

// ---- Tolerant loading: ReadOptions::max_bad_rows ----

TEST(CsvTest, MaxBadRowsSkipsAndReportsArityMismatch) {
  const std::string text = "a,b\n1,2\n3\n4,5\n6,7,8\n9,10\n";
  // Strict (default): first ragged record fails the load, naming its line.
  auto strict = ParseCsvString(text);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("line 3"), std::string::npos);

  CsvOptions opts;
  opts.read.max_bad_rows = 2;
  ReadReport report;
  auto d = ParseCsvString(text, opts, &report).ValueOrDie();
  EXPECT_EQ(d.num_rows(), 3u);
  EXPECT_EQ(report.rows_loaded, 3u);
  ASSERT_EQ(report.bad_rows.size(), 2u);
  EXPECT_EQ(report.bad_rows[0].line, 3u);  // "3" — 1 field
  EXPECT_NE(report.bad_rows[0].error.find("expected 2"), std::string::npos);
  EXPECT_EQ(report.bad_rows[1].line, 5u);  // "6,7,8" — 3 fields
}

TEST(CsvTest, MaxBadRowsCapExceededFailsWithLine) {
  CsvOptions opts;
  opts.read.max_bad_rows = 1;
  auto r = ParseCsvString("a,b\n1\n2\n", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("more than 1 bad rows"), std::string::npos);
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

TEST(CsvTest, MaxBadRowsHandlesUnterminatedQuote) {
  // The unterminated quote swallows the rest of the file; the two good
  // rows before it load, the broken tail is recorded at its start line.
  CsvOptions opts;
  opts.read.max_bad_rows = 1;
  ReadReport report;
  auto d = ParseCsvString("a,b\n1,2\n3,4\n5,\"oops\n", opts, &report).ValueOrDie();
  EXPECT_EQ(d.num_rows(), 2u);
  ASSERT_EQ(report.bad_rows.size(), 1u);
  EXPECT_EQ(report.bad_rows[0].line, 4u);
  EXPECT_NE(report.bad_rows[0].error.find("unterminated"), std::string::npos);
}

TEST(CsvTest, QuotedEmbeddedNewlinesKeepLineNumbersRight) {
  // Record 1 spans lines 2-3 (quoted newline); the ragged record is on
  // physical line 4 and must be reported there.
  CsvOptions opts;
  opts.read.max_bad_rows = 1;
  ReadReport report;
  auto d =
      ParseCsvString("a,b\n\"x\ny\",1\nbad\n2,3\n", opts, &report).ValueOrDie();
  EXPECT_EQ(d.num_rows(), 2u);
  ASSERT_EQ(report.bad_rows.size(), 1u);
  EXPECT_EQ(report.bad_rows[0].line, 4u);
}

TEST(JsonLinesTest, MaxBadRowsSkipsAndReports) {
  const std::string text =
      "{\"a\":1}\n"
      "{\"a\":oops}\n"          // bad literal
      "{\"a\":\"\\u12G4\"}\n"   // invalid \uXXXX digit
      "[1,2]\n"                 // not an object
      "{\"a\":2}\n";
  // Strict: first bad line fails.
  EXPECT_FALSE(ParseJsonLinesString(text).ok());

  ReadOptions opts;
  opts.max_bad_rows = 3;
  ReadReport report;
  auto d = ParseJsonLinesString(text, opts, &report).ValueOrDie();
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(report.rows_loaded, 2u);
  ASSERT_EQ(report.bad_rows.size(), 3u);
  EXPECT_EQ(report.bad_rows[0].line, 2u);
  EXPECT_EQ(report.bad_rows[1].line, 3u);
  EXPECT_NE(report.bad_rows[1].error.find("\\u"), std::string::npos);
  EXPECT_EQ(report.bad_rows[2].line, 4u);
  EXPECT_NE(report.bad_rows[2].error.find("not an object"), std::string::npos);
}

TEST(JsonLinesTest, MaxBadRowsCapExceededFails) {
  ReadOptions opts;
  opts.max_bad_rows = 1;
  auto r = ParseJsonLinesString("nope\nnope\n{\"a\":1}\n", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("more than 1 bad rows"), std::string::npos);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(XmlTest, EmptyInputs) {
  auto empty_root = ParseXmlString("<dblp></dblp>").ValueOrDie();
  EXPECT_EQ(empty_root.num_rows(), 0u);
  EXPECT_EQ(empty_root.schema().num_fields(), 0u);
}

TEST_F(FormatRoundTripTest, ZeroRowDatasetsSurviveEveryFormat) {
  Dataset empty(Schema{{"a", ValueType::kInt}, {"s", ValueType::kString}});
  // CSV and colpack carry the schema through a zero-row round-trip.
  ASSERT_TRUE(WriteCsv(empty, Path("e.csv")).ok());
  auto csv_back = ReadCsv(Path("e.csv")).ValueOrDie();
  EXPECT_EQ(csv_back.num_rows(), 0u);
  EXPECT_EQ(csv_back.schema().num_fields(), 2u);
  ASSERT_TRUE(WriteColpack(empty, Path("e.cpk")).ok());
  auto cpk_back = ReadColpack(Path("e.cpk")).ValueOrDie();
  EXPECT_EQ(cpk_back.num_rows(), 0u);
  EXPECT_EQ(cpk_back.schema().num_fields(), 2u);
  // JSON-lines and XML infer the schema from records, so a zero-row file
  // legitimately reads back schemaless — but still zero rows, no error.
  ASSERT_TRUE(WriteJsonLines(empty, Path("e.jsonl")).ok());
  EXPECT_EQ(ReadJsonLines(Path("e.jsonl")).ValueOrDie().num_rows(), 0u);
  ASSERT_TRUE(WriteXml(empty, Path("e.xml")).ok());
  EXPECT_EQ(ReadXml(Path("e.xml")).ValueOrDie().num_rows(), 0u);
}

// ---- Quoting/escaping edge cases ----

TEST_F(FormatRoundTripTest, EscaperTortureStrings) {
  // Every escaper hazard in one dataset: delimiters, quotes, newlines,
  // tabs, backslashes, markup, braces, and the empty string. The id column
  // keeps rows distinguishable (and keeps CSV lines non-blank).
  const char* nasty[] = {"a,b",    "q\"uote",    "line\nbreak",
                         "tab\there", "back\\slash", "<tag>&amp;",
                         "{\"json\":[1]}", ""};
  Dataset d(Schema{{"id", ValueType::kInt}, {"s", ValueType::kString}});
  int64_t id = 0;
  for (const char* s : nasty) d.Append({Value(id++), Value(s)});

  ASSERT_TRUE(WriteCsv(d, Path("n.csv")).ok());
  auto csv_back = ReadCsv(Path("n.csv")).ValueOrDie();
  ASSERT_EQ(csv_back.num_rows(), d.num_rows());
  for (size_t i = 0; i < d.num_rows(); i++) {
    const Value& back = csv_back.row(i)[1];
    // CSV cannot tell the empty string from null; everything else is exact.
    if (d.row(i)[1].AsString().empty()) {
      EXPECT_TRUE(back.is_null() || back.AsString().empty()) << "row " << i;
    } else {
      EXPECT_EQ(back.AsString(), d.row(i)[1].AsString()) << "row " << i;
    }
  }

  ASSERT_TRUE(WriteJsonLines(d, Path("n.jsonl")).ok());
  EXPECT_TRUE(testsupport::DatasetsEqual(d, ReadJsonLines(Path("n.jsonl")).ValueOrDie()));

  ASSERT_TRUE(WriteColpack(d, Path("n.cpk")).ok());
  EXPECT_TRUE(testsupport::DatasetsEqual(d, ReadColpack(Path("n.cpk")).ValueOrDie()));
}

TEST_F(FormatRoundTripTest, XmlEscapesMarkupButTrimsSurroundingWhitespace) {
  Dataset d(Schema{{"s", ValueType::kString}});
  d.Append({Value("<tag>&amp;\"quotes\"")});
  d.Append({Value("  spaces  ")});
  ASSERT_TRUE(WriteXml(d, Path("w.xml")).ok());
  auto back = ReadXml(Path("w.xml")).ValueOrDie();
  ASSERT_EQ(back.num_rows(), 2u);
  // Markup survives via entity escaping...
  EXPECT_EQ(back.row(0)[0].AsString(), "<tag>&amp;\"quotes\"");
  // ...but the reader trims surrounding whitespace (documented behavior).
  EXPECT_EQ(back.row(1)[0].AsString(), "spaces");
}

TEST(CsvTest, BlankLineRowIsDroppedNotMisparsed) {
  // A single empty string column renders as a blank line, which the reader
  // skips — the known CSV ambiguity. Rows must never shift misaligned.
  auto text_parsed = ParseCsvString("s\nx\n\ny\n").ValueOrDie();
  ASSERT_EQ(text_parsed.num_rows(), 2u);
  EXPECT_EQ(text_parsed.row(0)[0].AsString(), "x");
  EXPECT_EQ(text_parsed.row(1)[0].AsString(), "y");
}

TEST_F(FormatRoundTripTest, ColpackRejectsGarbage) {
  {
    std::ofstream f(Path("junk.cpk"), std::ios::binary);
    f << "not a colpack file";
  }
  EXPECT_FALSE(ReadColpack(Path("junk.cpk")).ok());
  EXPECT_FALSE(ReadColpack(Path("missing.cpk")).ok());
}

}  // namespace
}  // namespace cleanm
