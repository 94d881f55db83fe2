#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "datagen/noise.h"
#include "sql/cursor.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/settings.h"
#include "sql/tokenizer.h"
#include "sql/value.h"

namespace hermes::sql {
namespace {

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value::Int(42).type(), ValueType::kInt);
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_EQ(Value::Double(1.5).type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_EQ(Value::Str("hi").type(), ValueType::kString);
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
  // Numeric widening: ints read as doubles.
  EXPECT_DOUBLE_EQ(Value::Int(7).AsDouble(), 7.0);
  EXPECT_TRUE(Value::Int(7).is_numeric());
  EXPECT_TRUE(Value::Double(7).is_numeric());
  EXPECT_FALSE(Value::Str("7").is_numeric());
}

TEST(ValueTest, EqualityIsTypeExact) {
  EXPECT_EQ(Value::Int(2), Value::Int(2));
  EXPECT_NE(Value::Int(2), Value::Double(2.0));
  EXPECT_NE(Value::Int(2), Value::Str("2"));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int(0));
}

TEST(ValueTest, DisplayForm) {
  EXPECT_EQ(Value::Null().ToString(), "");
  EXPECT_EQ(Value::Int(1234).ToString(), "1234");
  EXPECT_EQ(Value::Double(0.5).ToString(), "0.5");
  EXPECT_EQ(Value::Double(12345.678).ToString(), "1.235e+04");  // %.4g.
  EXPECT_EQ(Value::Str("x y").ToString(), "x y");
}

// ---------------------------------------------------------------------------
// Settings registry
// ---------------------------------------------------------------------------

TEST(SettingsTest, RegisterSetGet) {
  Settings settings;
  ASSERT_TRUE(settings.Register("hermes.alpha", Value::Double(1.0),
                                "test knob").ok());
  EXPECT_TRUE(settings.Register("HERMES.ALPHA", Value::Double(2.0), "dup")
                  .IsAlreadyExists());
  EXPECT_DOUBLE_EQ(settings.Get("hermes.alpha")->AsDouble(), 1.0);
  ASSERT_TRUE(settings.Set("HERMES.alpha", Value::Double(2.5)).ok());
  EXPECT_DOUBLE_EQ(settings.Get("hermes.alpha")->AsDouble(), 2.5);
  EXPECT_TRUE(settings.Get("hermes.beta").status().IsNotSupported());
  EXPECT_TRUE(
      settings.Set("hermes.beta", Value::Int(1)).IsNotSupported());
}

TEST(SettingsTest, CoercionRules) {
  Settings settings;
  ASSERT_TRUE(settings.Register("k.int", Value::Int(1), "int knob").ok());
  ASSERT_TRUE(settings.Register("k.dbl", Value::Double(1.0), "dbl").ok());
  // Integral double -> int.
  ASSERT_TRUE(settings.Set("k.int", Value::Double(4.0)).ok());
  EXPECT_EQ(*settings.Get("k.int"), Value::Int(4));
  // Fractional double -> error, value unchanged.
  EXPECT_TRUE(settings.Set("k.int", Value::Double(2.5))
                  .IsInvalidArgument());
  EXPECT_EQ(*settings.Get("k.int"), Value::Int(4));
  // Int widens for a double knob.
  ASSERT_TRUE(settings.Set("k.dbl", Value::Int(3)).ok());
  EXPECT_EQ(*settings.Get("k.dbl"), Value::Double(3.0));
  // Strings never coerce to numerics.
  EXPECT_TRUE(settings.Set("k.dbl", Value::Str("3")).IsInvalidArgument());
  EXPECT_TRUE(settings.Set("k.int", Value::Null()).IsInvalidArgument());
}

TEST(SettingsTest, ValidatorRejectsBeforeStateChanges) {
  Settings settings;
  int hook_calls = 0;
  ASSERT_TRUE(settings
                  .Register(
                      "k.pos", Value::Int(1), "positive",
                      [](const Value& v) {
                        return v.AsInt() > 0
                                   ? Status::OK()
                                   : Status::InvalidArgument("must be > 0");
                      },
                      [&hook_calls](const Value&) {
                        ++hook_calls;
                        return Status::OK();
                      })
                  .ok());
  EXPECT_TRUE(settings.Set("k.pos", Value::Int(0)).IsInvalidArgument());
  EXPECT_EQ(hook_calls, 0);  // Rejected before the hook fired.
  EXPECT_EQ(*settings.Get("k.pos"), Value::Int(1));
  ASSERT_TRUE(settings.Set("k.pos", Value::Int(9)).ok());
  EXPECT_EQ(hook_calls, 1);
}

TEST(SettingsTest, FailedHookRestoresPreviousValue) {
  Settings settings;
  ASSERT_TRUE(settings
                  .Register("k.h", Value::Int(1), "hooked", nullptr,
                            [](const Value& v) {
                              return v.AsInt() == 13
                                         ? Status::Internal("unlucky")
                                         : Status::OK();
                            })
                  .ok());
  ASSERT_TRUE(settings.Set("k.h", Value::Int(7)).ok());
  EXPECT_TRUE(settings.Set("k.h", Value::Int(13)).IsInternal());
  EXPECT_EQ(*settings.Get("k.h"), Value::Int(7));
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(TokenizerTest, BasicStatement) {
  auto tokens = Tokenize("SELECT QUT(d, 0, 100);");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 11u);  // incl. kEnd.
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].text, "QUT");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kLParen);
  EXPECT_EQ((*tokens)[3].text, "D");  // Upper-cased.
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ((*tokens)[5].number, 0.0);
}

TEST(TokenizerTest, NumbersSignedAndScientific) {
  auto tokens = Tokenize("-1.5 +2e3 .25 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_DOUBLE_EQ((*tokens)[0].number, -1.5);
  EXPECT_FALSE((*tokens)[0].is_integer);
  EXPECT_DOUBLE_EQ((*tokens)[1].number, 2000.0);
  EXPECT_FALSE((*tokens)[1].is_integer);
  EXPECT_DOUBLE_EQ((*tokens)[2].number, 0.25);
  EXPECT_DOUBLE_EQ((*tokens)[3].number, 7.0);
  EXPECT_TRUE((*tokens)[3].is_integer);
}

TEST(TokenizerTest, StringsAndComments) {
  auto tokens = Tokenize("LOAD MOD m FROM 'a b.csv'; -- comment\n");
  ASSERT_TRUE(tokens.ok());
  bool found = false;
  for (const auto& t : *tokens) {
    if (t.kind == TokenKind::kString) {
      EXPECT_EQ(t.text, "a b.csv");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TokenizerTest, Placeholders) {
  auto tokens = Tokenize("SELECT RANGE(d, $1, $23)");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ((*tokens)[5].kind, TokenKind::kParam);
  EXPECT_EQ((*tokens)[5].param_index, 1);
  EXPECT_EQ((*tokens)[5].text, "$1");
  ASSERT_EQ((*tokens)[7].kind, TokenKind::kParam);
  EXPECT_EQ((*tokens)[7].param_index, 23);

  EXPECT_TRUE(Tokenize("SELECT $").status().IsInvalidArgument());
  EXPECT_TRUE(Tokenize("SELECT $0").status().IsInvalidArgument());
  EXPECT_TRUE(Tokenize("SELECT $1000").status().IsInvalidArgument());
  EXPECT_TRUE(Tokenize("SELECT $99999999999").status().IsInvalidArgument());
}

TEST(TokenizerTest, UnterminatedStringFails) {
  EXPECT_TRUE(Tokenize("LOAD MOD m FROM 'oops").status().IsInvalidArgument());
}

TEST(TokenizerTest, StrayCharacterFails) {
  const Status status = Tokenize("SELECT @").status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("at position 7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, CreateDropLoad) {
  auto create = ParseStatement("CREATE MOD flights;");
  ASSERT_TRUE(create.ok());
  EXPECT_EQ(create->kind, Statement::Kind::kCreateMod);
  EXPECT_EQ(create->mod, "FLIGHTS");

  auto drop = ParseStatement("drop mod flights");
  ASSERT_TRUE(drop.ok());
  EXPECT_EQ(drop->kind, Statement::Kind::kDropMod);

  auto load = ParseStatement("LOAD MOD flights FROM '/tmp/f.csv';");
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->kind, Statement::Kind::kLoadMod);
  EXPECT_EQ(load->path, "/tmp/f.csv");
}

TEST(ParserTest, InsertMultipleRows) {
  auto stmt = ParseStatement(
      "INSERT INTO d VALUES (1, 0, 10, 20), (1, 5, 11, 21);");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kInsert);
  ASSERT_EQ(stmt->rows.size(), 2u);
  EXPECT_EQ(stmt->rows[1][1].value, Value::Int(5));
  EXPECT_EQ(stmt->rows[1][3].value, Value::Int(21));
}

TEST(ParserTest, SelectQutSignature) {
  auto stmt = ParseStatement(
      "SELECT QUT(D, 0, 3600, 900, 300, 75, 150, 32);");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kSelect);
  EXPECT_EQ(stmt->function, "QUT");
  EXPECT_EQ(stmt->mod, "D");
  ASSERT_EQ(stmt->args.size(), 7u);
  EXPECT_EQ(stmt->args[2].value, Value::Int(900));
  EXPECT_EQ(stmt->num_params, 0);
}

TEST(ParserTest, NumericLiteralsKeepTheirSpelledType) {
  auto stmt = ParseStatement("SELECT S2T(d, 30, 60.5);");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->args[0].value, Value::Int(30));
  EXPECT_EQ(stmt->args[1].value, Value::Double(60.5));
  // Integer spellings beyond int64 range degrade to double, not UB.
  auto huge = ParseStatement("SELECT S2T(d, 99999999999999999999);");
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge->args[0].value.type(), ValueType::kDouble);
}

TEST(ParserTest, Placeholders) {
  auto stmt = ParseStatement("SELECT RANGE(d, $1, $2);");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->num_params, 2);
  EXPECT_EQ(stmt->args[0].param, 1);
  EXPECT_EQ(stmt->args[1].param, 2);

  auto insert = ParseStatement("INSERT INTO d VALUES ($1, $2, $3, $4);");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->num_params, 4);

  auto set = ParseStatement("SET hermes.threads = $1;");
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->num_params, 1);
  EXPECT_EQ(set->set_value.param, 1);
}

TEST(ParserTest, SetStatementValueForms) {
  auto stmt = ParseStatement("SET hermes.threads = 4;");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kSet);
  EXPECT_EQ(stmt->setting, "hermes.threads");
  EXPECT_EQ(stmt->set_value.value, Value::Int(4));

  auto dbl = ParseStatement("SET hermes.sigma = 1.5;");
  ASSERT_TRUE(dbl.ok());
  EXPECT_EQ(dbl->set_value.value, Value::Double(1.5));

  auto on = ParseStatement("SET hermes.use_index = on;");
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on->set_value.value, Value::Int(1));
  auto off = ParseStatement("SET hermes.use_index = FALSE;");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->set_value.value, Value::Int(0));

  auto str = ParseStatement("SET hermes.mode = 'fast';");
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(str->set_value.value, Value::Str("fast"));

  EXPECT_TRUE(ParseStatement("SET hermes.threads 4;")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("SET = 4;").status().IsInvalidArgument());
}

TEST(ParserTest, ShowStatement) {
  auto one = ParseStatement("SHOW hermes.threads;");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->kind, Statement::Kind::kShow);
  EXPECT_EQ(one->setting, "hermes.threads");

  auto all = ParseStatement("SHOW ALL;");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->setting, "all");

  auto stats = ParseStatement("show stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->setting, "stats");

  EXPECT_TRUE(ParseStatement("SHOW;").status().IsInvalidArgument());
}

TEST(ParserTest, ErrorsAreDescriptive) {
  EXPECT_TRUE(ParseStatement("FROB x").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("SELECT S2T d").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("CREATE TABLE t").status().IsInvalidArgument());
  EXPECT_TRUE(ParseStatement("SELECT QUT(d, 1").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseStatement("CREATE MOD a; extra").status().IsInvalidArgument());
}

TEST(ParserTest, ErrorsCarryPositionAndToken) {
  {
    const Status status = ParseStatement("SELECT S2T d").status();
    EXPECT_NE(status.message().find("at position 11"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("near 'D'"), std::string::npos);
  }
  {
    const Status status = ParseStatement("CREATE TABLE t").status();
    EXPECT_NE(status.message().find("at position 7"), std::string::npos)
        << status.message();
    EXPECT_NE(status.message().find("near 'TABLE'"), std::string::npos);
  }
  {
    // Truncated input points at end-of-input, not a stale token.
    const Status status = ParseStatement("SELECT QUT(d, 1").status();
    EXPECT_NE(status.message().find("near end of input"), std::string::npos)
        << status.message();
  }
}

TEST(ParserTest, ScriptSplitsStatements) {
  auto script = ParseScript(
      "CREATE MOD a; INSERT INTO a VALUES (1,0,0,0),(1,1,1,1); "
      "SELECT STATS(a);");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->size(), 3u);
}

TEST(ParserTest, ScriptSkipsEmptyStatements) {
  auto script = ParseScript(";;CREATE MOD a;; ;SELECT STATS(a);;;");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->size(), 2u);
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

class SqlSessionTest : public ::testing::Test {
 protected:
  Session session_;
};

TEST_F(SqlSessionTest, CreateInsertStats) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  ASSERT_TRUE(session_
                  .Execute("INSERT INTO d VALUES (1, 0, 0, 0), (1, 10, 100, "
                           "0), (2, 0, 0, 50), (2, 10, 100, 50);")
                  .ok());
  auto stats = session_.Execute("SELECT STATS(d);");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->rows.size(), 1u);
  EXPECT_EQ(stats->columns[0].name, "trajectories");
  EXPECT_EQ(stats->columns[0].type, ValueType::kInt);
  EXPECT_EQ(stats->rows[0][0], Value::Int(2));  // Trajectories.
  EXPECT_EQ(stats->rows[0][1], Value::Int(4));  // Points.
  EXPECT_EQ(stats->columns[3].type, ValueType::kDouble);
  EXPECT_EQ(stats->rows[0][4], Value::Double(10.0));  // t_max.
}

TEST_F(SqlSessionTest, DuplicateCreateFails) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  EXPECT_TRUE(session_.Execute("CREATE MOD d;").status().IsAlreadyExists());
}

TEST_F(SqlSessionTest, DropThenMissing) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  ASSERT_TRUE(session_.Execute("DROP MOD d;").ok());
  EXPECT_TRUE(session_.Execute("SELECT STATS(d);").status().IsNotFound());
  EXPECT_TRUE(session_.Execute("DROP MOD d;").status().IsNotFound());
}

TEST_F(SqlSessionTest, RangeQueryFiltersWindow) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  ASSERT_TRUE(session_
                  .Execute("INSERT INTO d VALUES (1, 0, 0, 0), (1, 100, 10, "
                           "0), (2, 500, 0, 0), (2, 600, 10, 0);")
                  .ok());
  auto result = session_.Execute("SELECT RANGE(d, 0, 200);");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);  // Only object 1.
  EXPECT_EQ(result->rows[0][0], Value::Int(1));
}

TEST_F(SqlSessionTest, S2TOverRegisteredScenario) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 4, 2000.0, 800.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());
  auto result = session_.Execute("SELECT S2T(lanes, 30, 60);");
  ASSERT_TRUE(result.ok());
  // Rows: clusters + the outlier summary line.
  ASSERT_GE(result->rows.size(), 3u);
  EXPECT_EQ(result->rows.back()[0], Value::Str("outliers"));
  // Data rows are typed: cluster ids int, rep times double.
  EXPECT_EQ(result->rows[0][0], Value::Int(0));
  EXPECT_EQ(result->rows[0][3].type(), ValueType::kDouble);
}

TEST_F(SqlSessionTest, QutBuildsTreeAndAnswers) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 6, 5000.0, 1600.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());
  auto result = session_.Execute(
      "SELECT QUT(lanes, 0, 160, 80, 40, 12, 80, 8);");
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->rows.size(), 1u);
  // Re-running with the same tree parameters reuses the tree.
  auto again = session_.Execute(
      "SELECT QUT(lanes, 40, 120, 80, 40, 12, 80, 8);");
  ASSERT_TRUE(again.ok());
}

TEST_F(SqlSessionTest, ShowStatsExposesIngestPhasesAfterQut) {
  // The tree build behind QUT runs the two-phase batch ingest; its
  // split/apply wall times must surface in SHOW STATS — both on the
  // sequential path (archived from the tree's stats) and with a live
  // exec context (recorded by InsertBatch itself).
  for (int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    sql::Session session;
    ASSERT_TRUE(session
                    .Execute("SET hermes.threads = " +
                             std::to_string(threads) + ";")
                    .ok());
    traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
        2, 6, 5000.0, 1600.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/1.0);
    ASSERT_TRUE(session.RegisterStore("lanes", std::move(lanes)).ok());
    ASSERT_TRUE(
        session.Execute("SELECT QUT(lanes, 0, 160, 80, 40, 12, 80, 8);")
            .ok());
    auto stats = session.Execute("SHOW STATS;");
    ASSERT_TRUE(stats.ok());
    bool saw_split = false;
    bool saw_apply = false;
    for (const auto& row : stats->rows) {
      if (row[0] == Value::Str("ingest_split")) saw_split = true;
      if (row[0] == Value::Str("ingest_apply")) saw_apply = true;
    }
    EXPECT_TRUE(saw_split);
    EXPECT_TRUE(saw_apply);
  }
}

TEST_F(SqlSessionTest, ArgumentCountValidatedWithPosition) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  EXPECT_TRUE(session_.Execute("SELECT QUT(d, 1, 2);").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_.Execute("SELECT S2T(d, 1, 2, 3);").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_.Execute("SELECT RANGE(d, 5, 5);").status()
                  .IsInvalidArgument());
  // Executor errors carry the offending token's position.
  const Status status = session_.Execute("SELECT QUT(d, 1, 2);").status();
  EXPECT_NE(status.message().find("at position 7 near 'QUT'"),
            std::string::npos)
      << status.message();
}

TEST_F(SqlSessionTest, UnknownFunctionRejected) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  EXPECT_TRUE(
      session_.Execute("SELECT FOO(d, 1);").status().IsNotSupported());
}

TEST_F(SqlSessionTest, LoadFromCsvFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hermes_sql_load.csv")
          .string();
  {
    std::ofstream out(path);
    out << "obj_id,t,x,y\n";
    for (int i = 0; i < 10; ++i) {
      out << "7," << i * 10 << "," << i * 100 << ",0\n";
    }
  }
  auto result = session_.Execute("LOAD MOD fleet FROM '" + path + "';");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][1], Value::Int(1));
  auto stats = session_.Execute("SELECT STATS(fleet);");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows[0][0], Value::Int(1));
  EXPECT_EQ(stats->rows[0][1], Value::Int(10));
  std::filesystem::remove(path);
}

TEST_F(SqlSessionTest, FailedLoadLeavesNoPhantomMod) {
  EXPECT_FALSE(
      session_.Execute("LOAD MOD ghost FROM '/nonexistent/x.csv';").ok());
  // The failed load must not register an empty MOD...
  EXPECT_TRUE(session_.Execute("SELECT STATS(ghost);").status().IsNotFound());
  // ...and the name stays available.
  EXPECT_TRUE(session_.Execute("CREATE MOD ghost;").ok());
}

TEST_F(SqlSessionTest, TraclusFunctionRuns) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      1, 6, 10.0, 800.0, 10.0, 10.0, /*seed=*/9, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("bundle", std::move(lanes)).ok());
  auto result = session_.Execute("SELECT TRACLUS(bundle, 60, 3);");
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->rows.size(), 2u);  // >=1 cluster + noise row.
  EXPECT_EQ(result->rows.back()[0], Value::Str("noise"));
  EXPECT_TRUE(
      session_.Execute("SELECT TRACLUS(bundle, 60);").status()
          .IsInvalidArgument());
}

TEST_F(SqlSessionTest, TOpticsFunctionRuns) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 4, 2000.0, 800.0, 10.0, 10.0, /*seed=*/11, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes2", std::move(lanes)).ok());
  auto result = session_.Execute("SELECT TOPTICS(lanes2, 300, 3);");
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->rows.size(), 3u);  // 2 clusters + noise row.
  EXPECT_EQ(result->rows.back()[0], Value::Str("noise"));
}

TEST_F(SqlSessionTest, ConvoysFunctionRuns) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      1, 5, 10.0, 800.0, 10.0, 10.0, /*seed=*/13, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("fleet", std::move(lanes)).ok());
  auto result = session_.Execute("SELECT CONVOYS(fleet, 80, 3, 3, 20);");
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->rows.size(), 1u);
  EXPECT_EQ(result->columns[0].name, "convoy_id");
  EXPECT_TRUE(
      session_.Execute("SELECT CONVOYS(fleet, 80, 3);").status()
          .IsInvalidArgument());
}

TEST_F(SqlSessionTest, FindStoreIsCaseInsensitive) {
  ASSERT_TRUE(session_.Execute("CREATE MOD Mixed;").ok());
  EXPECT_NE(session_.FindStore("mixed"), nullptr);
  EXPECT_NE(session_.FindStore("MIXED"), nullptr);
  EXPECT_EQ(session_.FindStore("other"), nullptr);
}

// ---------------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------------

TEST(TableTest, ToStringGoldenAlignment) {
  Table t;
  t.columns = {{"a", ValueType::kInt}, {"long_column", ValueType::kString}};
  t.rows = {{Value::Int(1), Value::Str("x")},
            {Value::Int(22), Value::Str("yy")},
            {Value::Str("sum"), Value::Null()}};
  EXPECT_EQ(t.ToString(),
            "| a   | long_column |\n"
            "+-----+-------------+\n"
            "| 1   | x           |\n"
            "| 22  | yy          |\n"
            "| sum |             |\n");
}

// ---------------------------------------------------------------------------
// Script semantics
// ---------------------------------------------------------------------------

TEST_F(SqlSessionTest, ExecuteScriptReturnsLastResult) {
  auto result = session_.ExecuteScript(
      "CREATE MOD d; INSERT INTO d VALUES (1,0,0,0),(1,1,1,1); "
      "SELECT STATS(d);");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns[0].name, "trajectories");
}

TEST_F(SqlSessionTest, ExecuteScriptSkipsEmptyStatements) {
  auto result = session_.ExecuteScript(
      ";;CREATE MOD d;; INSERT INTO d VALUES (1,0,0,0),(1,1,1,1);"
      ";SELECT STATS(d);;");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0], Value::Int(1));
}

TEST_F(SqlSessionTest, ExecuteScriptReportsFailingStatementOrdinal) {
  // Statement 2 fails (no such MOD); statement 3 must not run.
  auto result = session_.ExecuteScript(
      "CREATE MOD a; SELECT STATS(missing); CREATE MOD b;");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_NE(result.status().message().find("statement 2:"),
            std::string::npos)
      << result.status().message();
  // The script stopped: MOD b was never created, MOD a was.
  EXPECT_TRUE(session_.Execute("SELECT STATS(b);").status().IsNotFound());
  EXPECT_TRUE(session_.Execute("SELECT STATS(a);").ok());
}

TEST_F(SqlSessionTest, ExecuteScriptEmptyFails) {
  EXPECT_TRUE(session_.ExecuteScript("").status().IsInvalidArgument());
  EXPECT_TRUE(session_.ExecuteScript(";;;").status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Settings via SQL: SET / SHOW
// ---------------------------------------------------------------------------

TEST_F(SqlSessionTest, SetThreadsControlsSessionParallelism) {
  EXPECT_EQ(session_.threads(), 1u);
  EXPECT_EQ(session_.exec_context(), nullptr);

  auto result = session_.Execute("SET hermes.threads = 4;");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0], Value::Str("SET hermes.threads = 4"));
  EXPECT_EQ(session_.threads(), 4u);
  ASSERT_NE(session_.exec_context(), nullptr);
  EXPECT_EQ(session_.exec_context()->threads(), 4u);

  // Back to sequential: the context is dropped.
  ASSERT_TRUE(session_.Execute("SET hermes.threads = 1;").ok());
  EXPECT_EQ(session_.exec_context(), nullptr);
}

TEST_F(SqlSessionTest, ShowStatsExposesHotTierCounters) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 6, 5000.0, 1600.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());
  ASSERT_TRUE(
      session_.Execute("SELECT QUT(lanes, 0, 160, 80, 40, 12, 80, 8);").ok());
  // Second identical query: the tree is reused and the partitions the
  // first query promoted now serve from the hot tier.
  ASSERT_TRUE(
      session_.Execute("SELECT QUT(lanes, 0, 160, 80, 40, 12, 80, 8);").ok());
  auto stats = session_.Execute("SHOW STATS;");
  ASSERT_TRUE(stats.ok());
  int64_t hot = -1, cold = -1, bytes = -1, promotions = -1;
  for (const auto& row : stats->rows) {
    if (row[0] == Value::Str("qut_hot_probes")) hot = row[1].AsInt();
    if (row[0] == Value::Str("qut_cold_probes")) cold = row[1].AsInt();
    if (row[0] == Value::Str("hot_index_bytes")) bytes = row[1].AsInt();
    if (row[0] == Value::Str("hot_promotions")) promotions = row[1].AsInt();
  }
  EXPECT_GT(hot, 0);
  EXPECT_GT(cold, 0);  // The first (promoting) pass counted cold.
  EXPECT_GT(bytes, 0);
  EXPECT_GT(promotions, 0);
}

TEST_F(SqlSessionTest, HotIndexBudgetZeroKeepsQutCold) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 6, 5000.0, 1600.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());
  ASSERT_TRUE(session_.Execute("SET hermes.hot_index_budget = 0;").ok());
  ASSERT_TRUE(
      session_.Execute("SELECT QUT(lanes, 0, 160, 80, 40, 12, 80, 8);").ok());
  ASSERT_TRUE(
      session_.Execute("SELECT QUT(lanes, 0, 160, 80, 40, 12, 80, 8);").ok());
  auto stats = session_.Execute("SHOW STATS;");
  ASSERT_TRUE(stats.ok());
  for (const auto& row : stats->rows) {
    if (row[0] == Value::Str("qut_hot_probes")) {
      EXPECT_EQ(row[1], Value::Int(0));
    }
    if (row[0] == Value::Str("hot_index_bytes")) {
      EXPECT_EQ(row[1], Value::Int(0));
    }
  }
}

TEST_F(SqlSessionTest, SettingsValidateAtTheBoundary) {
  // Regression: 0 / negative / non-integer / out-of-range values used to
  // slip through as silent casts; the registry must reject them all with
  // InvalidArgument and leave the setting untouched.
  for (const char* bad :
       {"SET hermes.threads = 0;", "SET hermes.threads = -2;",
        "SET hermes.threads = 2.5;", "SET hermes.threads = 1e9;",
        "SET hermes.threads = 99999999999999999999;",
        "SET hermes.threads = 'four';"}) {
    EXPECT_TRUE(session_.Execute(bad).status().IsInvalidArgument()) << bad;
    EXPECT_EQ(session_.threads(), 1u) << bad;
  }
  EXPECT_TRUE(session_.Execute("SET hermes.sigma = 0;")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_.Execute("SET hermes.epsilon = -1;")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_.Execute("SET hermes.use_index = 2;")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_.Execute("SET hermes.hot_index_budget = -1;")
                  .status()
                  .IsInvalidArgument());
  // 0 is in-domain: it disables the hot tier rather than being an error.
  EXPECT_TRUE(session_.Execute("SET hermes.hot_index_budget = 0;").ok());
  // Unknown knobs are NotSupported (distinct from bad values).
  EXPECT_TRUE(session_.Execute("SET hermes.workers = 2;")
                  .status()
                  .IsNotSupported());
}

TEST_F(SqlSessionTest, ShowSingleSettingAndAll) {
  ASSERT_TRUE(session_.Execute("SET hermes.threads = 2;").ok());
  auto one = session_.Execute("SHOW hermes.threads;");
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->rows.size(), 1u);
  EXPECT_EQ(one->rows[0][0], Value::Str("hermes.threads"));
  EXPECT_EQ(one->rows[0][1], Value::Int(2));  // Typed, not a string.
  EXPECT_EQ(one->rows[0][2], Value::Str("int"));

  auto all = session_.Execute("SHOW ALL;");
  ASSERT_TRUE(all.ok());
  ASSERT_GE(all->rows.size(), 4u);
  bool saw_sigma = false, saw_use_index = false;
  for (const auto& row : all->rows) {
    if (row[0] == Value::Str("hermes.sigma")) {
      saw_sigma = true;
      EXPECT_EQ(row[1].type(), ValueType::kDouble);
    }
    if (row[0] == Value::Str("hermes.use_index")) {
      saw_use_index = true;
      EXPECT_EQ(row[1], Value::Int(1));
    }
  }
  EXPECT_TRUE(saw_sigma);
  EXPECT_TRUE(saw_use_index);

  EXPECT_TRUE(
      session_.Execute("SHOW hermes.nope;").status().IsNotSupported());
}

TEST_F(SqlSessionTest, S2TUsesSessionDefaultsWhenArgsOmitted) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 4, 2000.0, 800.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());

  auto explicit_args = session_.Execute("SELECT S2T(lanes, 30, 60);");
  ASSERT_TRUE(explicit_args.ok());

  ASSERT_TRUE(session_.Execute("SET hermes.sigma = 30;").ok());
  ASSERT_TRUE(session_.Execute("SET hermes.epsilon = 60;").ok());
  auto defaults = session_.Execute("SELECT S2T(lanes);");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(explicit_args->rows, defaults->rows);

  // One trailing arg: sigma explicit, epsilon from the session default.
  auto partial = session_.Execute("SELECT S2T(lanes, 30);");
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(explicit_args->rows, partial->rows);
}

TEST_F(SqlSessionTest, S2TRejectsNonFiniteOrNonPositiveBandwidths) {
  // Regression: `1e999` (+inf) used to run and NaN binds produced an
  // all-outlier table, while SET already refused the same values.
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 4, 2000.0, 800.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());
  for (const char* bad :
       {"SELECT S2T_MEMBERS(lanes, 1e999, 60);",
        "SELECT S2T_MEMBERS(lanes, 30, 1e999);",
        "SELECT S2T(lanes, -1e999, 60);", "SELECT S2T(lanes, 0, 60);",
        "SELECT S2T(lanes, 30, -5);"}) {
    auto r = session_.Execute(bad);
    EXPECT_TRUE(r.status().IsInvalidArgument()) << bad;
    EXPECT_NE(r.status().ToString().find("finite and > 0"),
              std::string::npos)
        << r.status().ToString();
  }

  auto prepared = session_.Prepare("SELECT S2T_MEMBERS(lanes, $1, $2);");
  ASSERT_TRUE(prepared.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [sigma, eps] :
       {std::pair{nan, 60.0}, {30.0, nan}, {inf, 60.0}, {30.0, -inf}}) {
    ASSERT_TRUE(prepared->Bind(1, Value::Double(sigma)).ok());
    ASSERT_TRUE(prepared->Bind(2, Value::Double(eps)).ok());
    EXPECT_TRUE(prepared->Execute().status().IsInvalidArgument())
        << sigma << ", " << eps;
  }
  ASSERT_TRUE(prepared->Bind(1, Value::Double(30)).ok());
  ASSERT_TRUE(prepared->Bind(2, Value::Double(60)).ok());
  EXPECT_TRUE(prepared->Execute().ok());

  // The session defaults hold the same line.
  EXPECT_TRUE(session_.Execute("SET hermes.sigma = 1e999;")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_.Execute("SET hermes.epsilon = -1e999;")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_.Execute("SELECT S2T(lanes);").ok());
}

TEST_F(SqlSessionTest, UseIndexSettingSwitchesEngineBitExactly) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 4, 2000.0, 800.0, 10.0, 10.0, /*seed=*/7, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());
  auto indexed = session_.Execute("SELECT S2T(lanes, 30, 60);");
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(session_.Execute("SET hermes.use_index = off;").ok());
  auto naive = session_.Execute("SELECT S2T(lanes, 30, 60);");
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(indexed->rows, naive->rows);  // Engines agree exactly.
}

TEST_F(SqlSessionTest, ShowStatsAccumulatesTypedTimings) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 4, 2000.0, 800.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());
  ASSERT_TRUE(session_.Execute("SELECT S2T(lanes, 30, 60);").ok());
  auto stats = session_.Execute("SHOW STATS;");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->columns.size(), 2u);
  EXPECT_EQ(stats->columns[1].type, ValueType::kInt);
  bool saw_voting = false;
  for (const auto& row : stats->rows) {
    if (row[0] == Value::Str("s2t_voting")) {
      saw_voting = true;
      EXPECT_GE(row[1].AsInt(), 0);
    }
  }
  EXPECT_TRUE(saw_voting);
  // The session accessor exposes the same numbers typed.
  EXPECT_GE(session_.stats().PhaseUs("s2t_segmentation"), 0);
}

TEST_F(SqlSessionTest, ThreadsSettingMidSessionKeepsS2TBitIdentical) {
  // `SET hermes.threads` must take effect mid-session without changing a
  // single output bit: the member listing of a 4-thread run — every
  // parallel phase engaged (probe handles, vote kernel, NaTS two-pass) —
  // equals the 1-thread run row for row.
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 5, 2000.0, 800.0, 10.0, 10.0, /*seed=*/9, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());

  auto seq = session_.Execute("SELECT S2T_MEMBERS(lanes, 30, 60);");
  ASSERT_TRUE(seq.ok());
  ASSERT_GE(seq->rows.size(), 2u);
  EXPECT_EQ(session_.exec_context(), nullptr);

  ASSERT_TRUE(session_.Execute("SET hermes.threads = 4;").ok());
  auto par = session_.Execute("SELECT S2T_MEMBERS(lanes, 30, 60);");
  ASSERT_TRUE(par.ok());
  ASSERT_EQ(session_.threads(), 4u);
  EXPECT_EQ(seq->rows, par->rows);  // Bit-identical, not merely similar.

  // SHOW STATS surfaces the newly parallel phases' timings, merged across
  // the sequential archive and the live 4-thread context.
  auto stats = session_.Execute("SHOW STATS;");
  ASSERT_TRUE(stats.ok());
  bool saw_probe = false, saw_kernel = false, saw_dp = false,
       saw_materialize = false;
  for (const auto& row : stats->rows) {
    if (row[0] == Value::Str("s2t_voting_probe")) saw_probe = true;
    if (row[0] == Value::Str("s2t_voting_kernel")) saw_kernel = true;
    if (row[0] == Value::Str("s2t_segmentation_dp")) saw_dp = true;
    if (row[0] == Value::Str("s2t_segmentation_materialize")) {
      saw_materialize = true;
    }
    if (row[0].type() == ValueType::kString) {
      EXPECT_GE(row[1].AsInt(), 0) << row[0].ToString();
    }
  }
  EXPECT_TRUE(saw_probe);
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_dp);
  EXPECT_TRUE(saw_materialize);

  // And back down to 1 thread: still the same rows.
  ASSERT_TRUE(session_.Execute("SET hermes.threads = 1;").ok());
  auto seq_again = session_.Execute("SELECT S2T_MEMBERS(lanes, 30, 60);");
  ASSERT_TRUE(seq_again.ok());
  EXPECT_EQ(seq->rows, seq_again->rows);
}

TEST_F(SqlSessionTest, QutTreeBuildTimingsArchivedSequentially) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 6, 5000.0, 1600.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());
  ASSERT_TRUE(
      session_.Execute("SELECT QUT(lanes, 0, 160, 80, 40, 12, 80, 8);").ok());
  // Even without a live context, the tree build's S2T phases land in the
  // session archive (regression: SHOW STATS coverage depended on
  // hermes.threads).
  const auto phases = session_.stats().PhaseTimings();
  EXPECT_EQ(phases.count("s2t_voting"), 1u);
  EXPECT_EQ(phases.count("qut_query"), 1u);
}

TEST_F(SqlSessionTest, ShowStatsNotDoubleCountedWithLiveContext) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 4, 2000.0, 800.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());
  ASSERT_TRUE(session_.Execute("SET hermes.threads = 2;").ok());
  ASSERT_TRUE(session_.Execute("SELECT S2T(lanes, 30, 60);").ok());
  // With a live context the core records the s2t_* phases into it; the
  // session archive must NOT hold a second copy (regression: SHOW STATS
  // double-counted every phase while threads > 1).
  EXPECT_EQ(session_.stats().PhaseTimings().count("s2t_voting"), 0u);
  auto stats = session_.Execute("SHOW STATS;");
  ASSERT_TRUE(stats.ok());
  bool saw_voting = false;
  for (const auto& row : stats->rows) {
    if (row[0] == Value::Str("s2t_voting")) saw_voting = true;
  }
  EXPECT_TRUE(saw_voting);
  // Retiring the context (threads back to 1) folds its timings into the
  // session archive, so the breakdown survives the swap.
  ASSERT_TRUE(session_.Execute("SET hermes.threads = 1;").ok());
  EXPECT_EQ(session_.stats().PhaseTimings().count("s2t_voting"), 1u);
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

TEST_F(SqlSessionTest, PreparedRangeExecutesWithBoundValues) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  ASSERT_TRUE(session_
                  .Execute("INSERT INTO d VALUES (1, 0, 0, 0), (1, 100, 10, "
                           "0), (2, 500, 0, 0), (2, 600, 10, 0);")
                  .ok());
  auto prepared = session_.Prepare("SELECT RANGE(d, $1, $2);");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->num_params(), 2);

  ASSERT_TRUE(prepared->Bind(1, Value::Double(0)).ok());
  ASSERT_TRUE(prepared->Bind(2, Value::Double(200)).ok());
  auto bound = prepared->Execute();
  ASSERT_TRUE(bound.ok());
  auto direct = session_.Execute("SELECT RANGE(d, 0, 200);");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(bound->rows, direct->rows);

  // Re-bind one parameter and re-execute — no re-parse, new window.
  ASSERT_TRUE(prepared->Bind(2, Value::Double(700)).ok());
  auto wider = prepared->Execute();
  ASSERT_TRUE(wider.ok());
  EXPECT_EQ(wider->rows.size(), 2u);
}

TEST_F(SqlSessionTest, PreparedRangeWithModPlaceholder) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  ASSERT_TRUE(session_
                  .Execute("INSERT INTO d VALUES (1, 0, 0, 0), (1, 100, 10, "
                           "0), (2, 500, 0, 0), (2, 600, 10, 0);")
                  .ok());
  // The MOD position itself is a placeholder: the acceptance shape
  // `SELECT RANGE($1, $2, $3)` from the issue.
  auto prepared = session_.Prepare("SELECT RANGE($1, $2, $3);");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->num_params(), 3);
  ASSERT_TRUE(prepared->Bind(1, Value::Str("d")).ok());
  ASSERT_TRUE(prepared->Bind(2, Value::Double(0)).ok());
  ASSERT_TRUE(prepared->Bind(3, Value::Double(200)).ok());
  auto bound = prepared->Execute();
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto direct = session_.Execute("SELECT RANGE(d, 0, 200);");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(bound->rows, direct->rows);
  // A non-string MOD binding is a typed error; an unknown name NotFound.
  ASSERT_TRUE(prepared->Bind(1, Value::Int(7)).ok());
  EXPECT_TRUE(prepared->Execute().status().IsInvalidArgument());
  ASSERT_TRUE(prepared->Bind(1, Value::Str("missing")).ok());
  EXPECT_TRUE(prepared->Execute().status().IsNotFound());
}

TEST_F(SqlSessionTest, PreparedBindingErrors) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  auto prepared = session_.Prepare("SELECT RANGE(d, $1, $2);");
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->Bind(0, Value::Int(1)).IsInvalidArgument());
  EXPECT_TRUE(prepared->Bind(3, Value::Int(1)).IsInvalidArgument());
  // Unbound $2: execution refuses.
  ASSERT_TRUE(prepared->Bind(1, Value::Int(0)).ok());
  const Status status = prepared->Execute().status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("$2"), std::string::npos);
  // Binding a non-number surfaces at execution with a typed error.
  ASSERT_TRUE(prepared->Bind(2, Value::Str("oops")).ok());
  EXPECT_TRUE(prepared->Execute().status().IsInvalidArgument());
}

TEST_F(SqlSessionTest, PreparedInsertReusedByMaintenanceLoop) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  // Two samples per object: one sample forms no segment.
  auto insert = session_.Prepare(
      "INSERT INTO d VALUES ($1, $2, $3, $4), ($1, $5, $6, $4);");
  ASSERT_TRUE(insert.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(insert->Bind(1, Value::Int(100 + i)).ok());
    ASSERT_TRUE(insert->Bind(2, Value::Double(0)).ok());
    ASSERT_TRUE(insert->Bind(3, Value::Double(i)).ok());
    ASSERT_TRUE(insert->Bind(4, Value::Double(0)).ok());
    ASSERT_TRUE(insert->Bind(5, Value::Double(10)).ok());
    ASSERT_TRUE(insert->Bind(6, Value::Double(i + 1)).ok());
    auto ack = insert->Execute();
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    EXPECT_EQ(ack->rows[0][1], Value::Int(1));
  }
  // A one-sample object is rejected, as on every backend, and changes
  // nothing.
  auto single = session_.Prepare("INSERT INTO d VALUES ($1, 0, 0, 0);");
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(single->Bind(1, Value::Int(200)).ok());
  EXPECT_EQ(single->Execute().status().code(), StatusCode::kInvalidArgument);
  auto stats = session_.Execute("SELECT STATS(d);");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows[0][0], Value::Int(5));
}

TEST_F(SqlSessionTest, PreparedSetStatement) {
  auto set = session_.Prepare("SET hermes.threads = $1;");
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(set->Bind(1, Value::Int(2)).ok());
  ASSERT_TRUE(set->Execute().ok());
  EXPECT_EQ(session_.threads(), 2u);
  // Bad bound value hits the same boundary validation.
  ASSERT_TRUE(set->Bind(1, Value::Int(0)).ok());
  EXPECT_TRUE(set->Execute().status().IsInvalidArgument());
  EXPECT_EQ(session_.threads(), 2u);
}

TEST_F(SqlSessionTest, UnpreparedExecuteRejectsPlaceholders) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  EXPECT_TRUE(session_.Execute("SELECT RANGE(d, $1, $2);")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_.ExecuteScript("CREATE MOD e; SELECT RANGE(e, $1, 2);")
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------------

TEST_F(SqlSessionTest, RangeCursorMatchesExecute) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  ASSERT_TRUE(session_
                  .Execute("INSERT INTO d VALUES (1, 0, 0, 0), (1, 100, 10, "
                           "0), (2, 0, 0, 9), (2, 100, 10, 9), "
                           "(3, 500, 0, 0), (3, 600, 10, 0);")
                  .ok());
  auto table = session_.Execute("SELECT RANGE(d, 0, 200);");
  ASSERT_TRUE(table.ok());

  auto cursor = session_.ExecuteCursor("SELECT RANGE(d, 0, 200);");
  ASSERT_TRUE(cursor.ok());
  ASSERT_EQ((*cursor)->columns().size(), 2u);
  EXPECT_EQ((*cursor)->columns()[0].name, "object_id");
  std::vector<std::vector<Value>> streamed;
  std::vector<Value> row;
  while (true) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    streamed.push_back(row);
  }
  EXPECT_EQ(streamed, table->rows);
  // Exhausted cursors stay exhausted.
  auto again = (*cursor)->Next(&row);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST_F(SqlSessionTest, CursorCanStopEarly) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  for (int obj = 0; obj < 20; ++obj) {
    std::string sql = "INSERT INTO d VALUES (" + std::to_string(obj) +
                      ", 0, 0, 0), (" + std::to_string(obj) + ", 10, 5, 0);";
    ASSERT_TRUE(session_.Execute(sql).ok());
  }
  auto cursor = session_.ExecuteCursor("SELECT RANGE(d, 0, 100);");
  ASSERT_TRUE(cursor.ok());
  // Read only the first three rows; dropping the cursor abandons the rest
  // without materializing them.
  std::vector<Value> row;
  for (int i = 0; i < 3; ++i) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    ASSERT_TRUE(*more);
    EXPECT_EQ(row[0], Value::Int(i));
  }
}

TEST_F(SqlSessionTest, S2TMembersCursorStreamsEveryMember) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 4, 2000.0, 800.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("lanes", std::move(lanes)).ok());
  auto summary = session_.Execute("SELECT S2T(lanes, 30, 60);");
  ASSERT_TRUE(summary.ok());
  // Total members across clusters + outliers, from the typed summary.
  int64_t expected = 0;
  for (const auto& r : summary->rows) expected += r[1].AsInt();

  auto cursor = session_.ExecuteCursor("SELECT S2T_MEMBERS(lanes, 30, 60);");
  ASSERT_TRUE(cursor.ok());
  int64_t streamed = 0;
  int64_t outlier_rows = 0;
  std::vector<Value> row;
  while (true) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++streamed;
    if (row[0].is_null()) ++outlier_rows;
    EXPECT_EQ(row[1].type(), ValueType::kInt);     // object_id.
    EXPECT_EQ(row[2].type(), ValueType::kDouble);  // start.
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_EQ(outlier_rows, summary->rows.back()[1].AsInt());
}

TEST(SessionCursorTest, CursorsKeepTheirSnapshotAcrossDdlAndIngest) {
  // A streaming cursor reads the snapshot its statement took: dropping,
  // replacing or appending to the MOD mid-stream changes none of its
  // rows (nor frees what it reads).
  const traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 4, 2000.0, 800.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  const std::vector<std::string> queries = {
      "SELECT RANGE(lanes, 0, 1000);", "SELECT S2T_MEMBERS(lanes, 30, 60);"};
  const std::vector<std::string> changes = {
      "DROP MOD lanes;", "REGISTER",
      "INSERT INTO lanes VALUES (77, 0, 0, 0), (77, 10, 5, 0);"};
  for (const std::string& change : changes) {
    Session session;
    ASSERT_TRUE(session.RegisterStore("lanes", lanes).ok());
    std::vector<Table> want;
    std::vector<std::unique_ptr<RowCursor>> cursors;
    std::vector<std::vector<std::vector<Value>>> got(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      auto table = session.Execute(queries[q]);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      ASSERT_GE(table->rows.size(), 2u) << queries[q];
      want.push_back(std::move(*table));
      auto cursor = session.ExecuteCursor(queries[q]);
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      std::vector<Value> row;
      auto more = (*cursor)->Next(&row);
      ASSERT_TRUE(more.ok() && *more) << queries[q];
      got[q].push_back(row);
      cursors.push_back(std::move(*cursor));
    }
    if (change == "REGISTER") {
      ASSERT_TRUE(session.RegisterStore("lanes", traj::TrajectoryStore()).ok());
    } else {
      ASSERT_TRUE(session.Execute(change).ok()) << change;
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      auto rest = cursors[q]->ToTable();
      ASSERT_TRUE(rest.ok()) << rest.status().ToString();
      got[q].insert(got[q].end(), rest->rows.begin(), rest->rows.end());
      EXPECT_EQ(got[q], want[q].rows) << change << " / " << queries[q];
    }
  }
}

TEST_F(SqlSessionTest, MaterializingStatementsStillCursor) {
  ASSERT_TRUE(session_.Execute("CREATE MOD d;").ok());
  auto cursor = session_.ExecuteCursor("SELECT STATS(d);");
  ASSERT_TRUE(cursor.ok());
  auto table = (*cursor)->ToTable();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][0], Value::Int(0));
}

// ---------------------------------------------------------------------------
// Settings are session-scoped, never process-global
// ---------------------------------------------------------------------------

TEST(SessionScopingTest, SettingsInTwoSessionsDoNotInterfere) {
  Session a;
  Session b;
  // Defaults are independent registries seeded from the same constants.
  EXPECT_EQ(a.settings().Get("hermes.sigma")->AsDouble(), 100.0);
  EXPECT_EQ(b.settings().Get("hermes.sigma")->AsDouble(), 100.0);

  // Every hermes.* knob set in `a` — including the ones whose on-change
  // hooks react (threads swaps the ExecContext) — must leave `b` at its
  // defaults: the hooks mutate only their owning session.
  ASSERT_TRUE(a.Execute("SET hermes.threads = 4;").ok());
  ASSERT_TRUE(a.Execute("SET hermes.sigma = 42;").ok());
  ASSERT_TRUE(a.Execute("SET hermes.epsilon = 84;").ok());
  ASSERT_TRUE(a.Execute("SET hermes.use_index = off;").ok());
  EXPECT_EQ(a.threads(), 4u);
  EXPECT_NE(a.exec_context(), nullptr);
  EXPECT_EQ(b.threads(), 1u);
  EXPECT_EQ(b.exec_context(), nullptr);
  EXPECT_EQ(b.settings().Get("hermes.threads")->AsInt(), 1);
  EXPECT_EQ(b.settings().Get("hermes.sigma")->AsDouble(), 100.0);
  EXPECT_EQ(b.settings().Get("hermes.epsilon")->AsDouble(), 200.0);
  EXPECT_EQ(b.settings().Get("hermes.use_index")->AsInt(), 1);

  // And each session's S2T picks up its *own* defaults: same MOD data,
  // different bandwidths, independently resolved.
  traj::TrajectoryStore lanes_a = datagen::MakeParallelLanes(
      2, 3, 2000.0, 800.0, 10.0, 10.0, /*seed=*/5, /*jitter=*/1.0);
  traj::TrajectoryStore lanes_b = lanes_a;
  ASSERT_TRUE(a.RegisterStore("lanes", std::move(lanes_a)).ok());
  ASSERT_TRUE(b.RegisterStore("lanes", std::move(lanes_b)).ok());
  auto wide = b.Execute("SELECT S2T(lanes);");      // sigma=100, eps=200.
  ASSERT_TRUE(wide.ok());
  auto explicit_b = b.Execute("SELECT S2T(lanes, 100, 200);");
  ASSERT_TRUE(explicit_b.ok());
  EXPECT_EQ(wide->rows, explicit_b->rows);
  auto narrow = a.Execute("SELECT S2T(lanes);");    // sigma=42, eps=84.
  ASSERT_TRUE(narrow.ok());
  auto explicit_a = a.Execute("SELECT S2T(lanes, 42, 84);");
  ASSERT_TRUE(explicit_a.ok());
  EXPECT_EQ(narrow->rows, explicit_a->rows);
}

TEST(SessionScopingTest, FlushIsANoOpAckAndServiceStatsNeedsAService) {
  Session session;
  // Embedded sessions apply INSERT synchronously, so FLUSH just acks.
  auto flush = session.Execute("FLUSH;");
  ASSERT_TRUE(flush.ok());
  EXPECT_EQ(flush->rows[0][0], Value::Str("FLUSH"));
  // SHOW SERVICE STATS reports the session's private server: one open
  // session, and the MODs and INSERTs of this session alone.
  ASSERT_TRUE(session.Execute("CREATE MOD d;").ok());
  ASSERT_TRUE(session
                  .Execute("INSERT INTO d VALUES (1, 0, 0, 0), (1, 10, 5, 0);")
                  .ok());
  auto svc = session.Execute("SHOW SERVICE STATS;");
  ASSERT_TRUE(svc.ok()) << svc.status().ToString();
  std::map<std::string, int64_t> counters;
  for (const auto& row : svc->rows) counters[row[0].AsString()] = row[1].AsInt();
  EXPECT_EQ(counters["sessions_opened"], 1);
  EXPECT_EQ(counters["sessions_active"], 1);
  EXPECT_EQ(counters["mods"], 1);
  EXPECT_EQ(counters["ingest_queue_depth"], 0);
  EXPECT_EQ(counters["wal_records_appended"], 0);
}

// ---------------------------------------------------------------------------
// Thread-count invariance (unchanged contract)
// ---------------------------------------------------------------------------

TEST_F(SqlSessionTest, S2TResultsAreThreadCountInvariant) {
  traj::TrajectoryStore lanes = datagen::MakeParallelLanes(
      2, 4, 2000.0, 800.0, 10.0, 10.0, /*seed=*/3, /*jitter=*/1.0);
  ASSERT_TRUE(session_.RegisterStore("parlanes", std::move(lanes)).ok());
  auto seq = session_.Execute("SELECT S2T(parlanes, 30, 60);");
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(session_.Execute("SET hermes.threads = 4;").ok());
  auto par = session_.Execute("SELECT S2T(parlanes, 30, 60);");
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(seq->rows, par->rows);
}

}  // namespace
}  // namespace hermes::sql
