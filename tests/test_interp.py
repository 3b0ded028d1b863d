"""Tests for the mini PHP interpreter."""

import pytest

from repro.interp import (
    HttpRequest,
    MockDatabase,
    PhpArray,
    PhpFatalError,
    PhpRuntimeError,
    run_php,
)


def output_of(source, request=None, **kwargs):
    return run_php("<?php " + source, request=request, **kwargs).response_body()


class TestBasics:
    def test_echo_literal(self):
        assert output_of("echo 'hello';") == "hello"

    def test_inline_html_written(self):
        env = run_php("<h1>Hi</h1><?php echo 'x';")
        assert env.response_body() == "<h1>Hi</h1>x"

    def test_variables_and_arithmetic(self):
        assert output_of("$a = 2; $b = 3; echo $a + $b * 2;") == "8"

    def test_string_concatenation(self):
        assert output_of("$a = 'foo'; echo $a . 'bar';") == "foobar"

    def test_interpolation(self):
        assert output_of("$name = 'world'; echo \"hello $name!\";") == "hello world!"

    def test_numeric_string_coercion(self):
        assert output_of("echo '5' + '10';") == "15"

    def test_compound_assignment(self):
        assert output_of("$s = 'a'; $s .= 'b'; echo $s;") == "ab"

    def test_increment(self):
        assert output_of("$i = 1; $i++; echo $i; echo ++$i;") == "23"

    def test_ternary(self):
        assert output_of("echo 1 ? 'y' : 'n';") == "y"
        assert output_of("echo 0 ?: 'fallback';") == "fallback"

    def test_print_expression(self):
        assert output_of("print 'x';") == "x"

    def test_exit_stops_execution(self):
        assert output_of("echo 'a'; exit; echo 'b';") == "a"

    def test_die_with_message(self):
        assert output_of("die('bye');") == "bye"


class TestControlFlow:
    def test_if_else(self):
        assert output_of("if (1) { echo 'a'; } else { echo 'b'; }") == "a"
        assert output_of("if (0) { echo 'a'; } elseif (1) { echo 'b'; }") == "b"

    def test_while_loop(self):
        assert output_of("$i = 0; while ($i < 3) { echo $i; $i++; }") == "012"

    def test_do_while(self):
        assert output_of("$i = 5; do { echo $i; $i++; } while ($i < 3);") == "5"

    def test_for_loop(self):
        assert output_of("for ($i = 0; $i < 3; $i++) { echo $i; }") == "012"

    def test_foreach(self):
        assert output_of("$a = array('x', 'y'); foreach ($a as $v) { echo $v; }") == "xy"

    def test_foreach_key_value(self):
        source = "$a = array('k' => 'v'); foreach ($a as $k => $v) { echo $k . '=' . $v; }"
        assert output_of(source) == "k=v"

    def test_break_continue(self):
        source = "for ($i = 0; $i < 5; $i++) { if ($i == 1) { continue; } if ($i == 3) { break; } echo $i; }"
        assert output_of(source) == "02"

    def test_switch_with_fallthrough(self):
        source = "switch (2) { case 1: echo 'a'; case 2: echo 'b'; case 3: echo 'c'; break; default: echo 'd'; }"
        assert output_of(source) == "bc"

    def test_switch_default(self):
        source = "switch (9) { case 1: echo 'a'; break; default: echo 'd'; }"
        assert output_of(source) == "d"

    def test_infinite_loop_hits_budget(self):
        with pytest.raises(PhpRuntimeError, match="budget"):
            output_of("while (1) { $x = 1; }", max_steps=5000)


class TestArrays:
    def test_literal_and_index(self):
        assert output_of("$a = array('k' => 'v'); echo $a['k'];") == "v"

    def test_push_syntax(self):
        assert output_of("$a = array(); $a[] = 'x'; $a[] = 'y'; echo $a[1];") == "y"

    def test_auto_vivification(self):
        assert output_of("$a['x']['y'] = 'deep'; echo $a['x']['y'];") == "deep"

    def test_unset(self):
        assert output_of("$a = array('k' => 'v'); unset($a['k']); echo isset($a['k']) ? 'y' : 'n';") == "n"

    def test_count(self):
        assert output_of("$a = array(1, 2, 3); echo count($a);") == "3"

    def test_in_array(self):
        assert output_of("$a = array('x'); echo in_array('x', $a) ? 'y' : 'n';") == "y"


class TestFunctions:
    def test_user_function(self):
        assert output_of("function f($x) { return $x * 2; } echo f(21);") == "42"

    def test_function_hoisting(self):
        assert output_of("echo f(); function f() { return 'hoisted'; }") == "hoisted"

    def test_default_parameter(self):
        assert output_of("function f($a, $b = '!') { return $a . $b; } echo f('hi');") == "hi!"

    def test_by_reference_parameter(self):
        assert output_of("function f(&$x) { $x = 'set'; } f($v); echo $v;") == "set"

    def test_global_keyword(self):
        assert output_of("$g = 'G'; function f() { global $g; return $g; } echo f();") == "G"

    def test_locals_isolated(self):
        assert output_of("$x = 'outer'; function f() { $x = 'inner'; } f(); echo $x;") == "outer"

    def test_undefined_function_fatal(self):
        with pytest.raises(PhpFatalError, match="undefined function"):
            output_of("nope();")

    def test_recursion(self):
        source = "function fact($n) { if ($n <= 1) { return 1; } return $n * fact($n - 1); } echo fact(5);"
        assert output_of(source) == "120"


class TestSuperglobals:
    def test_get_parameter(self):
        request = HttpRequest(get={"q": "search"})
        assert output_of("echo $_GET['q'];", request=request) == "search"

    def test_post_and_request(self):
        request = HttpRequest(post={"name": "bob"})
        assert output_of("echo $_REQUEST['name'];", request=request) == "bob"

    def test_referer(self):
        request = HttpRequest(referer="http://evil.example/")
        assert output_of("echo $_SERVER['HTTP_REFERER'];", request=request) == "http://evil.example/"
        assert output_of("echo $HTTP_REFERER;", request=request) == "http://evil.example/"


class TestBuiltins:
    def test_htmlspecialchars(self):
        assert output_of("echo htmlspecialchars('<b>&</b>');") == "&lt;b&gt;&amp;&lt;/b&gt;"

    def test_addslashes(self):
        assert output_of(r"""echo addslashes("a'b");""") == "a\\'b"

    def test_guard_function(self):
        out = output_of("echo __webssari_sanitize(\"<script>'\");")
        assert "<script>" not in out
        assert "&lt;script&gt;" in out

    def test_intval(self):
        assert output_of("echo intval('12abc');") == "12"

    def test_string_functions(self):
        assert output_of("echo strtoupper(substr('hello', 1, 3));") == "ELL"
        assert output_of("echo str_replace('a', 'o', 'banana');") == "bonono"
        assert output_of("echo implode(',', explode(' ', 'a b'));") == "a,b"

    def test_sprintf(self):
        assert output_of("echo sprintf('%s=%d', 'x', 5);") == "x=5"

    def test_extract(self):
        source = "$row = array('name' => 'alice'); extract($row); echo $name;"
        assert output_of(source) == "alice"


class TestDatabase:
    def test_insert_then_select(self):
        source = """
mysql_query("INSERT INTO users (name, role) VALUES ('alice', 'admin')");
$r = mysql_query("SELECT name FROM users");
$row = mysql_fetch_array($r);
echo $row['name'];
"""
        assert output_of(source) == "alice"

    def test_select_with_where(self):
        db = MockDatabase()
        db.create_table("t", [{"id": 1, "v": "one"}, {"id": 2, "v": "two"}])
        source = "$r = mysql_query(\"SELECT v FROM t WHERE id=2\"); $row = mysql_fetch_array($r); echo $row['v'];"
        assert output_of(source, database=db) == "two"

    def test_fetch_loop(self):
        db = MockDatabase()
        db.create_table("t", [{"v": "a"}, {"v": "b"}])
        source = "$r = mysql_query('SELECT v FROM t'); while ($row = mysql_fetch_array($r)) { echo $row['v']; }"
        assert output_of(source, database=db) == "ab"

    def test_sql_injection_drops_table(self):
        # The paper's Figure 3 attack: smuggle a DROP TABLE via the referer.
        db = MockDatabase()
        db.create_table("users", [{"name": "a"}])
        request = HttpRequest(referer="');DROP TABLE ('users")
        source = "$sql = \"INSERT INTO track_temp VALUES('$HTTP_REFERER');\"; mysql_query($sql);"
        run_php("<?php " + source, request=request, database=db)
        assert "users" in db.dropped_tables

    def test_sanitized_injection_does_not_drop(self):
        db = MockDatabase()
        db.create_table("users", [{"name": "a"}])
        request = HttpRequest(referer="');DROP TABLE ('users")
        source = (
            "$ref = __webssari_sanitize($HTTP_REFERER);"
            "$sql = \"INSERT INTO track_temp VALUES('$ref');\"; mysql_query($sql);"
        )
        run_php("<?php " + source, request=request, database=db)
        assert db.dropped_tables == []
        assert "users" in db.tables

    def test_query_log_records_everything(self):
        env = run_php("<?php mysql_query('SELECT 1 FROM x');")
        assert env.database.query_log == ["SELECT 1 FROM x"]


class TestSinkLogging:
    def test_exec_logged_not_run(self):
        env = run_php("<?php exec('rm -rf /');")
        assert env.command_log == ["rm -rf /"]

    def test_method_query_routes_to_db(self):
        env = run_php("<?php $db = new DB(); $db->query(\"INSERT INTO t VALUES ('v')\");")
        assert env.database.tables["t"] == [{"col0": "v"}]


class TestIncludes:
    def test_include_executes_file(self):
        files = {"lib.php": "<?php $shared = 'from lib';"}
        out = output_of("include 'lib.php'; echo $shared;", files=files)
        assert out == "from lib"

    def test_missing_require_fatal(self):
        with pytest.raises(PhpFatalError, match="required file"):
            output_of("require 'gone.php';")

    def test_missing_include_continues(self):
        assert output_of("include 'gone.php'; echo 'alive';") == "alive"

    def test_include_once(self):
        files = {"c.php": "<?php $n = $n + 1;"}
        out = output_of("$n = 0; include_once 'c.php'; include_once 'c.php'; echo $n;", files=files)
        assert out == "1"

    def test_includer_directory_is_tried_first(self):
        # Same rule as the static resolver: 'lib.php' written in
        # sub/page.php means sub/lib.php when that file exists.
        files = {"lib.php": "<?php echo 'root';", "sub/lib.php": "<?php echo 'sub';"}
        env = run_php("<?php include 'lib.php';", files=files, filename="sub/page.php")
        assert env.response_body() == "sub"

    def test_root_path_is_the_fallback(self):
        files = {"lib.php": "<?php echo 'root';"}
        env = run_php("<?php include 'lib.php';", files=files, filename="sub/page.php")
        assert env.response_body() == "root"

    def test_nested_include_resolves_against_its_own_file(self):
        files = {
            "sub/lib.php": "<?php include 'helper.php';",
            "sub/helper.php": "<?php echo 'nested';",
            "helper.php": "<?php echo 'wrong';",
        }
        env = run_php("<?php include 'sub/lib.php';", files=files, filename="page.php")
        assert env.response_body() == "nested"

    def test_include_once_dedups_normalized_paths(self):
        files = {"sub/c.php": "<?php $n = $n + 1;"}
        source = (
            "<?php $n = 0; include_once 'c.php'; include_once './c.php';"
            " include_once '../sub/c.php'; echo $n;"
        )
        env = run_php(source, files=files, filename="sub/page.php")
        assert env.response_body() == "1"


class TestXssScenario:
    def test_stored_xss_round_trip(self):
        """The paper's Figures 1-2 scenario executed end to end."""
        db = MockDatabase()
        db.create_table("tickets_tickets", [])
        payload = "<script>alert('xss')</script>"
        submit = """
$query = "INSERT INTO tickets_tickets (tickets_username, tickets_subject) VALUES ('{$_POST['user']}', '{$_POST['subject']}')";
@mysql_query($query);
"""
        display = """
$result = @mysql_query("SELECT tickets_username, tickets_subject FROM tickets_tickets");
while ($row = @mysql_fetch_array($result)) {
  extract($row);
  echo "$tickets_username<BR>$tickets_subject<BR><BR>";
}
"""
        run_php(
            "<?php " + submit,
            request=HttpRequest(post={"user": "mallory", "subject": payload}),
            database=db,
        )
        env = run_php("<?php " + display, database=db)
        # Vulnerable: the script tag is delivered to other users' browsers.
        # (The payload's own quotes get mangled by the unescaped SQL —
        # faithful to what a real database would do — but the tag survives.)
        assert "<script>" in env.response_body()

    def test_patched_display_neutralizes_payload(self):
        db = MockDatabase()
        db.create_table("tickets_tickets", [{"tickets_subject": "<script>x</script>"}])
        display = """
$result = mysql_query("SELECT tickets_subject FROM tickets_tickets");
while ($row = mysql_fetch_array($result)) {
  $subject = __webssari_sanitize($row['tickets_subject']);
  echo $subject;
}
"""
        env = run_php("<?php " + display, database=db)
        assert "<script>" not in env.response_body()
        assert "&lt;script&gt;" in env.response_body()


class TestValues:
    def test_php_array_auto_index(self):
        array = PhpArray()
        array.set(None, "a")
        array.set(5, "b")
        array.set(None, "c")
        assert array.keys() == [0, 5, 6]

    def test_php_array_key_normalization(self):
        array = PhpArray()
        array.set("3", "x")
        assert array.get(3) == "x"
        assert array.keys() == [3]

    def test_loose_comparisons(self):
        assert output_of("echo ('1' == 1) ? 'y' : 'n';") == "y"
        assert output_of("echo ('1' === 1) ? 'y' : 'n';") == "n"
        # PHP4-era semantics (the paper's vintage): non-numeric strings
        # coerce to 0 in numeric comparison, so 0 == 'a' is TRUE.
        assert output_of("echo (0 == 'a') ? 'y' : 'n';") == "y"

    def test_division_by_zero_returns_false(self):
        assert output_of("echo (1 / 0) ? 'y' : 'n';") == "n"
