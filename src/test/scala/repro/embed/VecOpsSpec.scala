package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.TestUtil.samples

class VecOpsSpec extends AnyFunSuite {

  private val eps = 1e-9

  test("dot of orthogonal unit vectors is 0") {
    assert(math.abs(VecOps.dot(Seq(1.0, 0.0), Seq(0.0, 1.0))) < eps)
  }

  test("dot of identical unit vectors is 1") {
    assert(math.abs(VecOps.dot(Seq(0.6, 0.8), Seq(0.6, 0.8)) - 1.0) < eps)
  }

  test("cosineDist is 0 for identical unit vectors") {
    assert(VecOps.cosineDist(Seq(0.6, 0.8), Seq(0.6, 0.8)) < eps)
  }

  test("cosineDist is 1 for orthogonal unit vectors") {
    assert(math.abs(VecOps.cosineDist(Seq(1.0, 0.0), Seq(0.0, 1.0)) - 1.0) < eps)
  }

  test("cosineDist is 2 for opposite unit vectors") {
    assert(math.abs(VecOps.cosineDist(Seq(1.0, 0.0), Seq(-1.0, 0.0)) - 2.0) < eps)
  }

  test("euclideanDist is 0 for identical unit vectors") {
    assert(VecOps.euclideanDist(Seq(0.6, 0.8), Seq(0.6, 0.8)) < eps)
  }

  test("euclideanDist of orthogonal unit vectors is sqrt(2)") {
    assert(math.abs(VecOps.euclideanDist(Seq(1.0, 0.0), Seq(0.0, 1.0)) - math.sqrt(2)) < eps)
  }

  test("normalize produces a unit vector") {
    val n = VecOps.normalize(Array(3.0, 4.0))
    assert(math.abs(math.sqrt(n.map(x => x * x).sum) - 1.0) < eps)
    assert(math.abs(n(0) - 0.6) < eps && math.abs(n(1) - 0.8) < eps)
  }

  test("normalize leaves the zero vector untouched") {
    val z = VecOps.normalize(Array(0.0, 0.0, 0.0))
    assert(z.forall(_ == 0.0))
  }

  test("meanNormalized of one vector is itself") {
    val v = VecOps.normalize(Array(1.0, 2.0, 2.0))
    val m = VecOps.meanNormalized(Seq(v.toSeq))
    v.zip(m).foreach { case (a, b) => assert(math.abs(a - b) < eps) }
  }

  test("meanNormalized of two symmetric vectors bisects them") {
    val m = VecOps.meanNormalized(Seq(Seq(1.0, 0.0), Seq(0.0, 1.0)))
    assert(math.abs(m(0) - m(1)) < eps)
    assert(math.abs(math.sqrt(m.map(x => x * x).sum) - 1.0) < eps)
  }

  test("meanNormalized rejects empty input") {
    intercept[IllegalArgumentException](VecOps.meanNormalized(Seq.empty))
  }

  test("dot and meanNormalized on List inputs equal the indexed sums bit for bit") {
    // Spark passes UDF array arguments as Lists; the iterator walk must keep
    // the index-order summation of the array formulation exactly.
    val rnd = new scala.util.Random(11)
    (0 until 20).foreach { _ =>
      val a = Array.fill(128)(rnd.nextGaussian()); val b = Array.fill(128)(rnd.nextGaussian())
      var ref = 0.0; var i = 0
      while (i < a.length) { ref += a(i) * b(i); i += 1 }
      assert(VecOps.dot(a.toList, b.toList) == ref)
      val acc = new Array[Double](a.length)
      i = 0
      while (i < a.length) { acc(i) = (0.0 + a(i) + b(i)) / 2; i += 1 }
      assert(VecOps.meanNormalized(Seq(a.toList, b.toList)).sameElements(VecOps.normalize(acc)))
    }
  }

  test("dot of long List vectors runs in linear time") {
    // Indexing a List is O(i), which would make this dot O(n²): ~2·10¹⁰ steps.
    val n = 200000
    val a = List.fill(n)(1.0)
    val t0 = System.nanoTime()
    assert(VecOps.dot(a, a) == n.toDouble)
    assert((System.nanoTime() - t0) / 1e9 < 5.0)
  }

  test("dot rejects vectors of unequal length instead of truncating") {
    intercept[IllegalArgumentException](VecOps.dot(Seq(1.0, 0.0), Seq(1.0, 0.0, 0.0)))
    intercept[IllegalArgumentException](VecOps.cosineDist(Seq(1.0, 0.0, 0.0), Seq(1.0)))
  }

  test("meanNormalized rejects vectors of unequal length") {
    intercept[IllegalArgumentException](VecOps.meanNormalized(Seq(Seq(1.0, 0.0), Seq(1.0, 0.0, 0.0))))
  }

  private val unitVecGen: Gen[Seq[Double]] =
    Gen.choose(2, 8).flatMap { d =>
      Gen.listOfN(d, Gen.choose(-1.0, 1.0)).map { xs =>
        val a = xs.toArray
        if (a.forall(x => math.abs(x) < 1e-6)) { a(0) = 1.0 }
        VecOps.normalize(a).toSeq
      }
    }

  private val pairGen: Gen[(Seq[Double], Seq[Double])] =
    Gen.choose(2, 8).flatMap { d =>
      for {
        a <- Gen.listOfN(d, Gen.choose(-1.0, 1.0))
        b <- Gen.listOfN(d, Gen.choose(-1.0, 1.0))
      } yield {
        def fix(xs: List[Double]) = {
          val arr = xs.toArray
          if (arr.forall(x => math.abs(x) < 1e-6)) arr(0) = 1.0
          VecOps.normalize(arr).toSeq
        }
        (fix(a), fix(b))
      }
    }

  test("property: cosineDist is symmetric and in [0, 2]") {
    samples(pairGen).foreach { case (a, b) =>
      val d1 = VecOps.cosineDist(a, b)
      val d2 = VecOps.cosineDist(b, a)
      assert(math.abs(d1 - d2) < 1e-9)
      assert(d1 >= 0.0 && d1 <= 2.0 + 1e-9)
    }
  }

  test("property: euclideanDist agrees with the naive formula on unit vectors") {
    samples(pairGen).foreach { case (a, b) =>
      val naive = math.sqrt(a.zip(b).map { case (x, y) => (x - y) * (x - y) }.sum)
      assert(math.abs(VecOps.euclideanDist(a, b) - naive) < 1e-6)
    }
  }

  test("property: normalize is idempotent") {
    samples(unitVecGen).foreach { a =>
      val n = VecOps.normalize(a.toArray)
      a.zip(n).foreach { case (x, y) => assert(math.abs(x - y) < 1e-9) }
    }
  }
}
