#include "exec/csv.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"

namespace swift {

namespace {

// Reads one CSV record (possibly spanning lines inside quotes) into
// fields; returns false at end of stream with no data consumed.
Result<bool> ReadRecord(std::istream& in, char delim,
                        std::vector<std::string>* fields) {
  fields->clear();
  if (in.peek() == std::char_traits<char>::eof()) return false;
  std::string field;
  bool in_quotes = false;
  bool saw_any = false;
  for (;;) {
    const int ci = in.get();
    if (ci == std::char_traits<char>::eof()) {
      if (in_quotes) {
        return Status::ParseError("unterminated quoted CSV field");
      }
      if (saw_any || !field.empty()) fields->push_back(std::move(field));
      return !fields->empty();
    }
    const char c = static_cast<char>(ci);
    saw_any = true;
    if (in_quotes) {
      if (c == '"') {
        if (in.peek() == '"') {
          in.get();
          field.push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    if (c == '"' && field.empty()) {
      in_quotes = true;
    } else if (c == delim) {
      fields->push_back(std::move(field));
      field.clear();
    } else if (c == '\r') {
      // swallow; handled with the following \n (or alone)
      if (in.peek() == '\n') in.get();
      fields->push_back(std::move(field));
      return true;
    } else if (c == '\n') {
      fields->push_back(std::move(field));
      return true;
    } else {
      field.push_back(c);
    }
  }
}

bool ParsesAsInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParsesAsDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

Result<std::shared_ptr<Table>> ReadCsv(const std::string& table_name,
                                       std::istream& in,
                                       const CsvOptions& options) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> fields;
  for (;;) {
    SWIFT_ASSIGN_OR_RETURN(bool got, ReadRecord(in, options.delimiter,
                                                &fields));
    if (!got) break;
    records.push_back(fields);
  }
  if (records.empty()) {
    return Status::InvalidArgument("empty CSV input");
  }

  std::vector<std::string> names;
  std::size_t first_data = 0;
  if (options.header) {
    names = records[0];
    first_data = 1;
  } else {
    for (std::size_t i = 0; i < records[0].size(); ++i) {
      names.push_back("c" + std::to_string(i));
    }
  }
  const std::size_t ncols = names.size();
  for (std::size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != ncols) {
      return Status::InvalidArgument(StrFormat(
          "CSV row %zu has %zu fields, expected %zu", r,
          records[r].size(), ncols));
    }
  }

  // Type inference per column.
  std::vector<DataType> types(ncols, DataType::kString);
  if (options.infer_types) {
    for (std::size_t c = 0; c < ncols; ++c) {
      bool all_int = true, all_num = true, any_value = false;
      for (std::size_t r = first_data; r < records.size(); ++r) {
        const std::string& s = records[r][c];
        if (s == options.null_token) continue;
        any_value = true;
        int64_t iv;
        double dv;
        if (!ParsesAsInt(s, &iv)) all_int = false;
        if (!ParsesAsDouble(s, &dv)) all_num = false;
        if (!all_num) break;
      }
      if (any_value && all_int) {
        types[c] = DataType::kInt64;
      } else if (any_value && all_num) {
        types[c] = DataType::kFloat64;
      }
    }
  }

  std::vector<Field> schema_fields;
  for (std::size_t c = 0; c < ncols; ++c) {
    schema_fields.push_back(Field{names[c], types[c]});
  }
  ColumnBatch data = EmptyBatchOf(Schema(std::move(schema_fields)));
  for (ColumnVector& col : data.columns) {
    col.Reserve(records.size() - first_data);
  }
  for (std::size_t r = first_data; r < records.size(); ++r) {
    for (std::size_t c = 0; c < ncols; ++c) {
      const std::string& s = records[r][c];
      ColumnVector& col = data.columns[c];
      if (s == options.null_token) {
        col.AppendNull();
        continue;
      }
      switch (types[c]) {
        case DataType::kInt64: {
          int64_t v = 0;
          ParsesAsInt(s, &v);
          col.AppendInt64(v);
          break;
        }
        case DataType::kFloat64: {
          double v = 0;
          ParsesAsDouble(s, &v);
          col.AppendFloat64(v);
          break;
        }
        default:
          col.AppendString(s);
      }
    }
  }
  data.physical_rows = records.size() - first_data;
  return std::make_shared<Table>(table_name, std::move(data));
}

Result<std::shared_ptr<Table>> ReadCsvString(const std::string& table_name,
                                             const std::string& text,
                                             const CsvOptions& options) {
  std::istringstream in(text);
  return ReadCsv(table_name, in, options);
}

Status LoadCsvFile(const std::string& table_name, const std::string& path,
                   Catalog* catalog, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return Status::IOError("cannot open CSV file " + path);
  }
  SWIFT_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                         ReadCsv(table_name, in, options));
  catalog->Put(std::move(table));
  return Status::OK();
}

}  // namespace swift
