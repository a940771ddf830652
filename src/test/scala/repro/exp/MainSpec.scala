package repro.exp

import org.scalatest.funsuite.AnyFunSuite

class MainSpec extends AnyFunSuite {

  private val artifacts =
    Seq("table1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11")

  test("missing or unknown artifact returns a usage error naming all nine artifacts") {
    for (args <- Seq(Seq(), Seq("fig5"), Seq("small"), Seq("fig10", "big"), Seq("fig2", "small", "x"))) {
      val msg = Main.parse(args).left.getOrElse(fail(s"expected a usage error for $args"))
      assert(artifacts.toSet.subsetOf(msg.split("[^a-z0-9]+").toSet), msg)
    }
  }

  // parse only picks the printer; the test never calls it, so no Spark starts.
  test("every artifact parses, with and without small") {
    for (a <- artifacts; args <- Seq(Seq(a), Seq(a, "small")))
      assert(Main.parse(args).isRight, args)
  }
}
