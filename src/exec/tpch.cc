#include "exec/tpch.h"

#include <algorithm>
#include <array>

#include "common/string_util.h"

namespace swift {

namespace {

constexpr std::array<const char*, 25> kNations = {
    "ALGERIA", "ARGENTINA", "BRAZIL",  "CANADA",     "EGYPT",
    "ETHIOPIA", "FRANCE",   "GERMANY", "INDIA",      "INDONESIA",
    "IRAN",     "IRAQ",     "JAPAN",   "JORDAN",     "KENYA",
    "MOROCCO",  "MOZAMBIQUE", "PERU",  "CHINA",      "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES"};

constexpr std::array<int, 25> kNationRegion = {0, 1, 1, 1, 4, 0, 3, 3, 2,
                                               2, 4, 4, 2, 4, 0, 0, 0, 1,
                                               2, 3, 4, 2, 3, 3, 1};

constexpr std::array<const char*, 5> kRegions = {"AFRICA", "AMERICA", "ASIA",
                                                 "EUROPE", "MIDDLE EAST"};

constexpr std::array<const char*, 11> kColors = {
    "almond", "antique", "azure", "blue", "chocolate", "green",
    "ivory",  "lemon",   "rose",  "steel", "violet"};

constexpr std::array<const char*, 6> kPartTypes = {
    "STANDARD ANODIZED", "SMALL PLATED", "MEDIUM BURNISHED",
    "ECONOMY BRUSHED",   "LARGE POLISHED", "PROMO BURNISHED"};

constexpr std::array<const char*, 5> kSegments = {
    "AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"};

constexpr std::array<const char*, 5> kPriorities = {
    "1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"};

constexpr std::array<const char*, 7> kShipModes = {
    "AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"};

constexpr std::array<const char*, 3> kOrderComments = {
    "packages sleep quickly",
    "special requests sleep furiously",  // Q13 excludes %special%requests%
    "deposits nag blithely"};

// Serial date handling: days since 1992-01-01, rendered ISO.
constexpr int kDaysPerMonth[12] = {31, 28, 31, 30, 31, 30,
                                   31, 31, 30, 31, 30, 31};

std::string DateFromSerial(int serial) {
  int year = 1992;
  for (;;) {
    const bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
    const int days = leap ? 366 : 365;
    if (serial < days) break;
    serial -= days;
    ++year;
  }
  const bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
  int month = 0;
  for (; month < 12; ++month) {
    int d = kDaysPerMonth[month] + (month == 1 && leap ? 1 : 0);
    if (serial < d) break;
    serial -= d;
  }
  return StrFormat("%04d-%02d-%02d", year, month + 1, serial + 1);
}

// Orders span 1992-01-01 .. 1998-08-02 (2405 serial days).
constexpr int kMaxOrderSerial = 2405;

double Round2(double v) { return std::round(v * 100.0) / 100.0; }

int64_t ScaledCount(int64_t base, double sf) {
  const double n = static_cast<double>(base) * sf;
  return std::max<int64_t>(1, static_cast<int64_t>(n));
}

}  // namespace

int64_t TpchRowCount(const std::string& name, double sf) {
  if (name == "supplier") return ScaledCount(10000, sf);
  if (name == "part") return ScaledCount(200000, sf);
  if (name == "partsupp") return ScaledCount(200000, sf) * 4;
  if (name == "customer") return ScaledCount(150000, sf);
  if (name == "orders") return ScaledCount(150000, sf) * 10;
  if (name == "nation") return 25;
  if (name == "region") return 5;
  return 0;  // lineitem is data dependent (~4 per order)
}

std::shared_ptr<Table> TpchNation() {
  ColumnBatch b = EmptyBatchOf(Schema({{"n_nationkey", DataType::kInt64},
                                       {"n_name", DataType::kString},
                                       {"n_regionkey", DataType::kInt64}}));
  for (std::size_t i = 0; i < kNations.size(); ++i) {
    b.columns[0].AppendInt64(static_cast<int64_t>(i));
    b.columns[1].AppendString(kNations[i]);
    b.columns[2].AppendInt64(kNationRegion[i]);
  }
  b.physical_rows = kNations.size();
  return std::make_shared<Table>("tpch_nation", std::move(b));
}

std::shared_ptr<Table> TpchRegion() {
  ColumnBatch b = EmptyBatchOf(Schema({{"r_regionkey", DataType::kInt64},
                                       {"r_name", DataType::kString}}));
  for (std::size_t i = 0; i < kRegions.size(); ++i) {
    b.columns[0].AppendInt64(static_cast<int64_t>(i));
    b.columns[1].AppendString(kRegions[i]);
  }
  b.physical_rows = kRegions.size();
  return std::make_shared<Table>("tpch_region", std::move(b));
}

// Generators append each row's cells in schema order: the random draws
// must keep that order for the data, and so the golden answers, to stay
// fixed.
std::shared_ptr<Table> TpchSupplier(const TpchConfig& config) {
  Rng rng(config.seed ^ 0x5101);
  ColumnBatch b = EmptyBatchOf(Schema({{"s_suppkey", DataType::kInt64},
                                       {"s_name", DataType::kString},
                                       {"s_nationkey", DataType::kInt64},
                                       {"s_acctbal", DataType::kFloat64}}));
  const int64_t n = TpchRowCount("supplier", config.scale_factor);
  for (int64_t i = 1; i <= n; ++i) {
    b.columns[0].AppendInt64(i);
    b.columns[1].AppendString(
        StrFormat("Supplier#%09lld", static_cast<long long>(i)));
    b.columns[2].AppendInt64(rng.UniformInt(0, 24));
    b.columns[3].AppendFloat64(Round2(rng.Uniform(-999.99, 9999.99)));
  }
  b.physical_rows = static_cast<std::size_t>(n);
  return std::make_shared<Table>("tpch_supplier", std::move(b));
}

std::shared_ptr<Table> TpchPart(const TpchConfig& config) {
  Rng rng(config.seed ^ 0x5A47);
  ColumnBatch b = EmptyBatchOf(Schema({{"p_partkey", DataType::kInt64},
                                       {"p_name", DataType::kString},
                                       {"p_type", DataType::kString},
                                       {"p_brand", DataType::kString},
                                       {"p_retailprice", DataType::kFloat64}}));
  const int64_t n = TpchRowCount("part", config.scale_factor);
  for (int64_t i = 1; i <= n; ++i) {
    // p_name is two color words, so '%green%' selects ~2/11 of parts.
    const char* c1 = kColors[static_cast<std::size_t>(rng.UniformInt(0, 10))];
    const char* c2 = kColors[static_cast<std::size_t>(rng.UniformInt(0, 10))];
    b.columns[0].AppendInt64(i);
    b.columns[1].AppendString(std::string(c1) + " " + c2);
    b.columns[2].AppendString(
        kPartTypes[static_cast<std::size_t>(rng.UniformInt(0, 5))]);
    b.columns[3].AppendString(
        StrFormat("Brand#%lld%lld",
                  static_cast<long long>(rng.UniformInt(1, 5)),
                  static_cast<long long>(rng.UniformInt(1, 5))));
    b.columns[4].AppendFloat64(Round2(900.0 + static_cast<double>(i % 1000)));
  }
  b.physical_rows = static_cast<std::size_t>(n);
  return std::make_shared<Table>("tpch_part", std::move(b));
}

std::shared_ptr<Table> TpchPartsupp(const TpchConfig& config) {
  Rng rng(config.seed ^ 0x9577);
  ColumnBatch b = EmptyBatchOf(Schema({{"ps_partkey", DataType::kInt64},
                                       {"ps_suppkey", DataType::kInt64},
                                       {"ps_supplycost", DataType::kFloat64},
                                       {"ps_availqty", DataType::kInt64}}));
  const int64_t parts = TpchRowCount("part", config.scale_factor);
  const int64_t suppliers = TpchRowCount("supplier", config.scale_factor);
  for (int64_t p = 1; p <= parts; ++p) {
    // 4 suppliers per part, deterministic spread like dbgen.
    for (int64_t k = 0; k < 4; ++k) {
      const int64_t s = 1 + (p + k * (suppliers / 4 + 1)) % suppliers;
      b.columns[0].AppendInt64(p);
      b.columns[1].AppendInt64(s);
      b.columns[2].AppendFloat64(Round2(rng.Uniform(1.0, 1000.0)));
      b.columns[3].AppendInt64(rng.UniformInt(1, 9999));
    }
  }
  b.physical_rows = static_cast<std::size_t>(parts * 4);
  return std::make_shared<Table>("tpch_partsupp", std::move(b));
}

std::shared_ptr<Table> TpchCustomer(const TpchConfig& config) {
  Rng rng(config.seed ^ 0xC057);
  ColumnBatch b = EmptyBatchOf(Schema({{"c_custkey", DataType::kInt64},
                                       {"c_name", DataType::kString},
                                       {"c_nationkey", DataType::kInt64},
                                       {"c_mktsegment", DataType::kString},
                                       {"c_acctbal", DataType::kFloat64}}));
  const int64_t n = TpchRowCount("customer", config.scale_factor);
  for (int64_t i = 1; i <= n; ++i) {
    b.columns[0].AppendInt64(i);
    b.columns[1].AppendString(
        StrFormat("Customer#%09lld", static_cast<long long>(i)));
    b.columns[2].AppendInt64(rng.UniformInt(0, 24));
    b.columns[3].AppendString(
        kSegments[static_cast<std::size_t>(rng.UniformInt(0, 4))]);
    b.columns[4].AppendFloat64(Round2(rng.Uniform(-999.99, 9999.99)));
  }
  b.physical_rows = static_cast<std::size_t>(n);
  return std::make_shared<Table>("tpch_customer", std::move(b));
}

std::shared_ptr<Table> TpchOrders(const TpchConfig& config) {
  Rng rng(config.seed ^ 0x04D5);
  ColumnBatch b = EmptyBatchOf(Schema({{"o_orderkey", DataType::kInt64},
                                       {"o_custkey", DataType::kInt64},
                                       {"o_orderstatus", DataType::kString},
                                       {"o_totalprice", DataType::kFloat64},
                                       {"o_orderdate", DataType::kString},
                                       {"o_orderpriority", DataType::kString},
                                       {"o_comment", DataType::kString}}));
  const int64_t n = TpchRowCount("orders", config.scale_factor);
  const int64_t customers = TpchRowCount("customer", config.scale_factor);
  for (int64_t i = 1; i <= n; ++i) {
    // dbgen leaves 1/3 of customers without orders; mimic by sampling
    // only custkeys not divisible by 3.
    int64_t cust = rng.UniformInt(1, customers);
    if (cust % 3 == 0) cust = std::max<int64_t>(1, cust - 1);
    b.columns[0].AppendInt64(i);
    b.columns[1].AppendInt64(cust);
    b.columns[2].AppendString(rng.Bernoulli(0.5) ? "O" : "F");
    b.columns[3].AppendFloat64(Round2(rng.Uniform(850.0, 450000.0)));
    b.columns[4].AppendString(
        DateFromSerial(static_cast<int>(rng.UniformInt(0, kMaxOrderSerial))));
    b.columns[5].AppendString(
        kPriorities[static_cast<std::size_t>(rng.UniformInt(0, 4))]);
    b.columns[6].AppendString(
        kOrderComments[static_cast<std::size_t>(rng.UniformInt(0, 2))]);
  }
  b.physical_rows = static_cast<std::size_t>(n);
  return std::make_shared<Table>("tpch_orders", std::move(b));
}

std::shared_ptr<Table> TpchLineitem(const TpchConfig& config) {
  Rng rng(config.seed ^ 0x11E1);
  ColumnBatch b = EmptyBatchOf(Schema({{"l_orderkey", DataType::kInt64},
                                       {"l_partkey", DataType::kInt64},
                                       {"l_suppkey", DataType::kInt64},
                                       {"l_linenumber", DataType::kInt64},
                                       {"l_quantity", DataType::kFloat64},
                                       {"l_extendedprice", DataType::kFloat64},
                                       {"l_discount", DataType::kFloat64},
                                       {"l_tax", DataType::kFloat64},
                                       {"l_returnflag", DataType::kString},
                                       {"l_linestatus", DataType::kString},
                                       {"l_shipdate", DataType::kString},
                                       {"l_shipmode", DataType::kString}}));
  const int64_t orders = TpchRowCount("orders", config.scale_factor);
  const int64_t parts = TpchRowCount("part", config.scale_factor);
  const int64_t suppliers = TpchRowCount("supplier", config.scale_factor);
  for (int64_t o = 1; o <= orders; ++o) {
    const int64_t lines = rng.UniformInt(1, 7);
    for (int64_t l = 1; l <= lines; ++l) {
      const int64_t part = rng.UniformInt(1, parts);
      // The supplier must be one of the part's 4 partsupp suppliers so
      // Q9's partsupp join matches (mirrors the dbgen constraint).
      const int64_t k = rng.UniformInt(0, 3);
      const int64_t supp = 1 + (part + k * (suppliers / 4 + 1)) % suppliers;
      const double qty = static_cast<double>(rng.UniformInt(1, 50));
      const double price = Round2(qty * (900.0 + static_cast<double>(part % 1000)) / 10.0);
      const char* rf = rng.Bernoulli(0.5) ? "N" : (rng.Bernoulli(0.5) ? "A" : "R");
      b.columns[0].AppendInt64(o);
      b.columns[1].AppendInt64(part);
      b.columns[2].AppendInt64(supp);
      b.columns[3].AppendInt64(l);
      b.columns[4].AppendFloat64(qty);
      b.columns[5].AppendFloat64(price);
      b.columns[6].AppendFloat64(Round2(rng.Uniform(0.0, 0.10)));
      b.columns[7].AppendFloat64(Round2(rng.Uniform(0.0, 0.08)));
      b.columns[8].AppendString(rf);
      b.columns[9].AppendString(rng.Bernoulli(0.5) ? "O" : "F");
      b.columns[10].AppendString(DateFromSerial(
          static_cast<int>(rng.UniformInt(0, kMaxOrderSerial + 60))));
      b.columns[11].AppendString(
          kShipModes[static_cast<std::size_t>(rng.UniformInt(0, 6))]);
      ++b.physical_rows;
    }
  }
  return std::make_shared<Table>("tpch_lineitem", std::move(b));
}

Status GenerateTpch(const TpchConfig& config, Catalog* catalog) {
  catalog->Put(TpchNation());
  catalog->Put(TpchRegion());
  catalog->Put(TpchSupplier(config));
  catalog->Put(TpchPart(config));
  catalog->Put(TpchPartsupp(config));
  catalog->Put(TpchCustomer(config));
  catalog->Put(TpchOrders(config));
  catalog->Put(TpchLineitem(config));
  return Status::OK();
}

}  // namespace swift
