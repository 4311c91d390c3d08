// Tests for the CSV loader (exec/csv.h): parsing, quoting, type
// inference, NULL handling, and end-to-end querying of loaded data.

#include "exec/csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "runtime/local_runtime.h"

namespace swift {
namespace {

TEST(CsvTest, BasicHeaderAndTypes) {
  auto t = ReadCsvString("t", "id,price,name\n1,2.5,apple\n2,3,pear\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ((*t)->schema.ToString(), "(id:int64, price:float64, name:string)");
  ASSERT_EQ((*t)->num_rows(), 2u);
  EXPECT_EQ((*t)->column(0).GetValue(0).int64(), 1);
  EXPECT_DOUBLE_EQ((*t)->column(1).GetValue(0).float64(), 2.5);
  EXPECT_EQ((*t)->column(2).GetValue(1).str(), "pear");
}

TEST(CsvTest, NoHeaderGeneratesColumnNames) {
  CsvOptions opts;
  opts.header = false;
  auto t = ReadCsvString("t", "1,x\n2,y\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->schema.field(0).name, "c0");
  EXPECT_EQ((*t)->schema.field(1).name, "c1");
  EXPECT_EQ((*t)->num_rows(), 2u);
}

TEST(CsvTest, QuotedFieldsWithDelimitersQuotesAndNewlines) {
  auto t = ReadCsvString(
      "t", "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"line1\nline2\",plain\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ((*t)->num_rows(), 2u);
  EXPECT_EQ((*t)->column(0).GetValue(0).str(), "x,y");
  EXPECT_EQ((*t)->column(1).GetValue(0).str(), "he said \"hi\"");
  EXPECT_EQ((*t)->column(0).GetValue(1).str(), "line1\nline2");
}

TEST(CsvTest, NullTokenBecomesNull) {
  CsvOptions opts;
  opts.null_token = "NA";
  auto t = ReadCsvString("t", "v\n1\nNA\n3\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->schema.field(0).type, DataType::kInt64);  // inferred
  EXPECT_TRUE((*t)->column(0).GetValue(1).is_null());
  EXPECT_EQ((*t)->column(0).GetValue(2).int64(), 3);
}

TEST(CsvTest, EmptyStringNullDefault) {
  auto t = ReadCsvString("t", "a,b\n1,\n,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE((*t)->column(1).GetValue(0).is_null());
  EXPECT_TRUE((*t)->column(0).GetValue(1).is_null());
}

TEST(CsvTest, MixedColumnFallsBackToString) {
  auto t = ReadCsvString("t", "v\n1\nx\n2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->schema.field(0).type, DataType::kString);
  EXPECT_EQ((*t)->column(0).GetValue(0).str(), "1");
}

TEST(CsvTest, TypeInferenceOff) {
  CsvOptions opts;
  opts.infer_types = false;
  auto t = ReadCsvString("t", "v\n1\n2\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->schema.field(0).type, DataType::kString);
}

TEST(CsvTest, CrLfLineEndings) {
  auto t = ReadCsvString("t", "a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ((*t)->num_rows(), 2u);
  EXPECT_EQ((*t)->column(1).GetValue(1).int64(), 4);
}

TEST(CsvTest, RaggedRowRejected) {
  EXPECT_EQ(ReadCsvString("t", "a,b\n1\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  EXPECT_EQ(ReadCsvString("t", "a\n\"oops\n").status().code(),
            StatusCode::kParseError);
}

TEST(CsvTest, EmptyInputRejected) {
  EXPECT_FALSE(ReadCsvString("t", "").ok());
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions opts;
  opts.delimiter = ';';
  auto t = ReadCsvString("t", "a;b\n1;2\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->column(1).GetValue(0).int64(), 2);
}

TEST(CsvTest, LoadFileAndQueryEndToEnd) {
  const std::string path = ::testing::TempDir() + "/swift_csv_test.csv";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "region,amount\n";
    out << "east,10\neast,30\nwest,20\n";
  }
  LocalRuntime runtime;
  ASSERT_TRUE(LoadCsvFile("sales", path, runtime.catalog()).ok());
  auto got = runtime.ExecuteSql(
      "select region, sum(amount) as total from sales "
      "group by region order by total desc");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->num_rows(), 2u);
  EXPECT_EQ(got->rows[0][0].str(), "east");
  EXPECT_EQ(got->rows[0][1].int64(), 40);
  std::filesystem::remove(path);
}

TEST(CsvTest, MissingFileIsIOError) {
  Catalog catalog;
  EXPECT_EQ(LoadCsvFile("t", "/nonexistent/file.csv", &catalog).code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace swift
