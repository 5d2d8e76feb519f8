#include "src/ir/program.h"

#include "src/util/check.h"
#include "src/util/strings.h"

namespace anduril::ir {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  ANDURIL_UNREACHABLE();
}

const char* LogFieldError(LogField field, std::string_view text) {
  if (text.find('\n') != std::string_view::npos) {
    return "holds a line break, which would split the log line";
  }
  if (field == LogField::kThread && text.find(']') != std::string_view::npos) {
    return "holds ']', which would end the thread field early";
  }
  if (field == LogField::kLogger &&
      (text.find(" - ") != std::string_view::npos || text.ends_with(" -"))) {
    return "holds the \" - \" separator, which would end the logger field early";
  }
  return nullptr;
}

void CheckLogField(LogField field, std::string_view text, const char* what) {
  const char* error = LogFieldError(field, text);
  ANDURIL_CHECK(error == nullptr) << what << " \"" << text << "\" " << error;
}

Program::Program() {
  // The root exception type always exists with id 0.
  ExceptionType root;
  root.id = 0;
  root.name = "Exception";
  root.parent = kInvalidId;
  exception_types_.push_back(root);
  exception_index_["Exception"] = 0;
}

ExceptionTypeId Program::DefineException(const std::string& name,
                                         const std::string& parent_name) {
  auto it = exception_index_.find(name);
  if (it != exception_index_.end()) {
    return it->second;
  }
  ExceptionTypeId parent = 0;
  if (!parent_name.empty()) {
    parent = FindException(parent_name);
    ANDURIL_CHECK_NE(parent, kInvalidId) << "unknown parent exception " << parent_name;
  }
  ExceptionType type;
  type.id = static_cast<ExceptionTypeId>(exception_types_.size());
  type.name = name;
  type.parent = parent;
  exception_types_.push_back(type);
  exception_index_[name] = type.id;
  return type.id;
}

ExceptionTypeId Program::FindException(const std::string& name) const {
  auto it = exception_index_.find(name);
  return it == exception_index_.end() ? kInvalidId : it->second;
}

bool Program::ExceptionIsA(ExceptionTypeId type, ExceptionTypeId ancestor) const {
  ExceptionTypeId cur = type;
  while (cur != kInvalidId) {
    if (cur == ancestor) {
      return true;
    }
    cur = exception_types_[static_cast<size_t>(cur)].parent;
  }
  return false;
}

VarId Program::InternVar(const std::string& name) {
  auto it = var_index_.find(name);
  if (it != var_index_.end()) {
    return it->second;
  }
  VarId id = static_cast<VarId>(var_names_.size());
  var_names_.push_back(name);
  var_index_[name] = id;
  return id;
}

LogTemplateId Program::DefineLogTemplate(LogLevel level, const std::string& logger,
                                         const std::string& text) {
  std::string key = StrFormat("%d|%s|%s", static_cast<int>(level), logger.c_str(), text.c_str());
  auto it = log_template_index_.find(key);
  if (it != log_template_index_.end()) {
    return it->second;
  }
  LogTemplate tmpl;
  tmpl.id = static_cast<LogTemplateId>(log_templates_.size());
  tmpl.level = level;
  tmpl.logger = logger;
  tmpl.text = text;
  log_templates_.push_back(tmpl);
  log_template_index_[key] = tmpl.id;
  return tmpl.id;
}

MethodId Program::DefineMethod(const std::string& name) {
  ANDURIL_CHECK(!finalized()) << "cannot add methods after Finalize";
  ANDURIL_CHECK(method_index_.find(name) == method_index_.end())
      << "duplicate method " << name;
  Method method;
  method.id = static_cast<MethodId>(methods_.size());
  method.name = name;
  // Statement 0 is the root block.
  Stmt root;
  root.kind = StmtKind::kBlock;
  method.stmts.push_back(root);
  methods_.push_back(std::move(method));
  method_index_[name] = methods_.back().id;
  return methods_.back().id;
}

MethodId Program::FindMethod(const std::string& name) const {
  auto it = method_index_.find(name);
  return it == method_index_.end() ? kInvalidId : it->second;
}

void Program::Finalize() {
  ANDURIL_CHECK(!finalized_) << "Finalize called twice";
  for (Method& method : methods_) {
    ANDURIL_CHECK(!method.stmts.empty());
    FillParents(&method, 0);
    VerifyMethod(method);
  }
  EnumerateFaultSites();
  finalized_ = true;
}

void Program::FillParents(Method* method, StmtId id) {
  Stmt& stmt = method->stmt(id);
  auto visit_child = [&](StmtId child) {
    if (child == kInvalidId) {
      return;
    }
    method->stmt(child).parent = id;
    FillParents(method, child);
  };
  for (StmtId child : stmt.children) {
    visit_child(child);
  }
  visit_child(stmt.then_block);
  visit_child(stmt.else_block);
  visit_child(stmt.try_block);
  for (const CatchClause& clause : stmt.catches) {
    visit_child(clause.block);
  }
}

void Program::VerifyMethod(const Method& method) const {
  ANDURIL_CHECK_EQ(method.stmt(0).kind, StmtKind::kBlock)
      << "method " << method.name << ": stmt 0 must be the root block";
  VerifyStmt(method, 0, /*inside_loop=*/false, /*inside_catch=*/false);
}

void Program::VerifyStmt(const Method& method, StmtId id, bool inside_loop,
                         bool inside_catch) const {
  const Stmt& stmt = method.stmt(id);
  auto check_block = [&](StmtId block, bool loop) {
    ANDURIL_CHECK_NE(block, kInvalidId) << "missing block in " << method.name;
    ANDURIL_CHECK_EQ(method.stmt(block).kind, StmtKind::kBlock);
    VerifyStmt(method, block, loop, inside_catch);
  };
  switch (stmt.kind) {
    case StmtKind::kBlock:
      for (StmtId child : stmt.children) {
        VerifyStmt(method, child, inside_loop, inside_catch);
      }
      break;
    case StmtKind::kIf:
      check_block(stmt.then_block, inside_loop);
      if (stmt.else_block != kInvalidId) {
        check_block(stmt.else_block, inside_loop);
      }
      break;
    case StmtKind::kWhile:
      check_block(stmt.then_block, /*loop=*/true);
      break;
    case StmtKind::kTryCatch:
      check_block(stmt.try_block, inside_loop);
      ANDURIL_CHECK(!stmt.catches.empty()) << "try without catch in " << method.name;
      for (const CatchClause& clause : stmt.catches) {
        ANDURIL_CHECK_GE(clause.type, 0);
        ANDURIL_CHECK_LT(static_cast<size_t>(clause.type), exception_types_.size());
        ANDURIL_CHECK_NE(clause.block, kInvalidId);
        ANDURIL_CHECK_EQ(method.stmt(clause.block).kind, StmtKind::kBlock);
        VerifyStmt(method, clause.block, inside_loop, /*inside_catch=*/true);
      }
      break;
    case StmtKind::kInvoke:
    case StmtKind::kSend:
    case StmtKind::kSubmit:
      ANDURIL_CHECK_GE(stmt.callee, 0) << "unresolved callee in " << method.name;
      ANDURIL_CHECK_LT(static_cast<size_t>(stmt.callee), methods_.size());
      if (stmt.kind == StmtKind::kSubmit) {
        ANDURIL_CHECK_NE(stmt.future_var, kInvalidId);
        ANDURIL_CHECK(!stmt.executor_thread.empty());
      }
      if (stmt.kind == StmtKind::kSend) {
        ANDURIL_CHECK(!stmt.target_node.empty());
      }
      break;
    case StmtKind::kThrow:
      // exception_type == kInvalidId marks a rethrow, legal only in a catch.
      if (stmt.exception_type == kInvalidId) {
        ANDURIL_CHECK(inside_catch) << "rethrow outside catch in " << method.name;
      }
      break;
    case StmtKind::kExternalCall:
      ANDURIL_CHECK(!stmt.site_name.empty());
      ANDURIL_CHECK(!stmt.throwable_types.empty())
          << "external call " << stmt.site_name << " declares no throwable types";
      break;
    case StmtKind::kAssign:
      ANDURIL_CHECK_NE(stmt.assign_var, kInvalidId);
      break;
    case StmtKind::kLog:
      ANDURIL_CHECK_GE(stmt.log_template, 0);
      ANDURIL_CHECK_LT(static_cast<size_t>(stmt.log_template), log_templates_.size());
      if (stmt.log_attach_exception) {
        ANDURIL_CHECK(inside_catch) << "LogExc outside catch in " << method.name;
      }
      break;
    case StmtKind::kSignal:
      ANDURIL_CHECK_NE(stmt.assign_var, kInvalidId);
      break;
    case StmtKind::kFutureGet:
      ANDURIL_CHECK_NE(stmt.future_var, kInvalidId);
      break;
    case StmtKind::kBreak:
      ANDURIL_CHECK(inside_loop) << "break outside loop in " << method.name;
      break;
    case StmtKind::kNop:
    case StmtKind::kAwait:
    case StmtKind::kSleep:
    case StmtKind::kReturn:
      break;
  }
}

void Program::EnumerateFaultSites() {
  for (const Method& method : methods_) {
    for (StmtId s = 0; s < static_cast<StmtId>(method.stmts.size()); ++s) {
      const Stmt& stmt = method.stmt(s);
      FaultSite site;
      site.location = GlobalStmt{method.id, s};
      switch (stmt.kind) {
        case StmtKind::kExternalCall:
          site.kind = FaultSiteKind::kExternal;
          site.name = StrFormat("%s@%s#%d", stmt.site_name.c_str(), method.name.c_str(), s);
          break;
        case StmtKind::kThrow:
          if (stmt.exception_type == kInvalidId) {
            continue;  // rethrow: a propagation point, not an origin
          }
          site.kind = FaultSiteKind::kThrowNew;
          site.name = StrFormat("throw:%s@%s#%d",
                                exception_type(stmt.exception_type).name.c_str(),
                                method.name.c_str(), s);
          break;
        case StmtKind::kAwait:
          if (stmt.exception_type == kInvalidId) {
            continue;
          }
          site.kind = FaultSiteKind::kAwaitTimeout;
          site.name = StrFormat("await:%s@%s#%d",
                                exception_type(stmt.exception_type).name.c_str(),
                                method.name.c_str(), s);
          break;
        case StmtKind::kSend:
          site.kind = FaultSiteKind::kSend;
          site.name = StrFormat("send:%s->%s@%s#%d", this->method(stmt.callee).name.c_str(),
                                stmt.target_node.c_str(), method.name.c_str(), s);
          break;
        default:
          continue;
      }
      site.id = static_cast<FaultSiteId>(fault_sites_.size());
      fault_site_index_[site.location] = site.id;
      fault_sites_.push_back(std::move(site));
    }
  }
}

FaultSiteId Program::FaultSiteAt(GlobalStmt location) const {
  auto it = fault_site_index_.find(location);
  return it == fault_site_index_.end() ? kInvalidId : it->second;
}

size_t Program::CountFaultSites(FaultSiteKind kind) const {
  size_t count = 0;
  for (const FaultSite& site : fault_sites_) {
    if (site.kind == kind) {
      ++count;
    }
  }
  return count;
}

size_t Program::TotalStmtCount() const {
  size_t count = 0;
  for (const Method& method : methods_) {
    count += method.stmts.size();
  }
  return count;
}

void Program::DumpStmt(const Method& method, StmtId id, int indent, std::string* out) const {
  const Stmt& stmt = method.stmt(id);
  auto line = [&](const std::string& text) {
    out->append(static_cast<size_t>(indent) * 2, ' ');
    out->append(StrFormat("[%d] ", id));
    out->append(text);
    out->push_back('\n');
  };
  auto cond_text = [&](const Cond& cond) -> std::string {
    if (cond.IsTrue()) {
      return "true";
    }
    std::string rhs = cond.rhs_is_var ? var_name(cond.rhs_var) : std::to_string(cond.rhs_const);
    return StrFormat("%s %s %s", var_name(cond.lhs).c_str(), CmpOpName(cond.op), rhs.c_str());
  };
  switch (stmt.kind) {
    case StmtKind::kBlock:
      line("{");
      for (StmtId child : stmt.children) {
        DumpStmt(method, child, indent + 1, out);
      }
      line("}");
      break;
    case StmtKind::kIf:
      line(StrFormat("if (%s)", cond_text(stmt.cond).c_str()));
      DumpStmt(method, stmt.then_block, indent + 1, out);
      if (stmt.else_block != kInvalidId) {
        line("else");
        DumpStmt(method, stmt.else_block, indent + 1, out);
      }
      break;
    case StmtKind::kWhile:
      line(StrFormat("while (%s)", cond_text(stmt.cond).c_str()));
      DumpStmt(method, stmt.then_block, indent + 1, out);
      break;
    case StmtKind::kTryCatch:
      line("try");
      DumpStmt(method, stmt.try_block, indent + 1, out);
      for (const CatchClause& clause : stmt.catches) {
        line(StrFormat("catch (%s)", exception_type(clause.type).name.c_str()));
        DumpStmt(method, clause.block, indent + 1, out);
      }
      break;
    case StmtKind::kAssign:
      line(StrFormat("%s = <expr>", var_name(stmt.assign_var).c_str()));
      break;
    case StmtKind::kLog:
      line(StrFormat("log %s \"%s\"", LogLevelName(log_template(stmt.log_template).level),
                     log_template(stmt.log_template).text.c_str()));
      break;
    case StmtKind::kInvoke:
      line(StrFormat("invoke %s", method_index_.size() ? methods_[static_cast<size_t>(
                                                             stmt.callee)].name.c_str()
                                                       : "?"));
      break;
    case StmtKind::kThrow:
      line(StrFormat("throw new %s", exception_type(stmt.exception_type).name.c_str()));
      break;
    case StmtKind::kExternalCall:
      line(StrFormat("external %s", stmt.site_name.c_str()));
      break;
    case StmtKind::kAwait:
      line(StrFormat("await (%s) timeout=%lld", cond_text(stmt.cond).c_str(),
                     static_cast<long long>(stmt.timeout_ms)));
      break;
    case StmtKind::kSignal:
      line(StrFormat("signal %s", var_name(stmt.assign_var).c_str()));
      break;
    case StmtKind::kSend:
      line(StrFormat("send %s -> %s", methods_[static_cast<size_t>(stmt.callee)].name.c_str(),
                     stmt.target_node.c_str()));
      break;
    case StmtKind::kSubmit:
      line(StrFormat("submit %s on %s",
                     methods_[static_cast<size_t>(stmt.callee)].name.c_str(),
                     stmt.executor_thread.c_str()));
      break;
    case StmtKind::kFutureGet:
      line(StrFormat("future_get %s", var_name(stmt.future_var).c_str()));
      break;
    case StmtKind::kSleep:
      line(StrFormat("sleep %lld", static_cast<long long>(stmt.sleep_ms)));
      break;
    case StmtKind::kReturn:
      line("return");
      break;
    case StmtKind::kBreak:
      line("break");
      break;
    case StmtKind::kNop:
      line(stmt.label.empty() ? "nop" : StrFormat("nop (%s)", stmt.label.c_str()));
      break;
  }
}

std::string Program::DumpMethod(MethodId id) const {
  const Method& method = methods_[static_cast<size_t>(id)];
  std::string out = StrFormat("method %s:\n", method.name.c_str());
  DumpStmt(method, 0, 1, &out);
  return out;
}

std::string Program::Dump() const {
  std::string out;
  for (const Method& method : methods_) {
    out += DumpMethod(method.id);
  }
  return out;
}

}  // namespace anduril::ir
