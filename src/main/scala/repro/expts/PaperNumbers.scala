package repro.expts

/** The paper's reported numbers (ICDE 2024, Tables III–VII), embedded so the
  * bench output and EXPERIMENTS.md can print paper-vs-ours side by side.
  * Cells that are unreadable in our copy of the paper are "n/r"; "\\" and
  * "-" are the paper's timeout/out-of-memory symbols.
  */
object PaperNumbers {

  /** Table III — dataset statistics. */
  val tableIII: Seq[(String, Int, Int, Long, Long, Long)] = Seq(
    // name, srcs, attrs, entities, tuples, pairs
    ("Geo", 4, 3, 3054L, 820L, 4391L),
    ("Music-20", 5, 5, 19375L, 5000L, 16250L),
    ("Music-200", 5, 5, 193750L, 50000L, 162500L),
    ("Music-2000", 5, 5, 1937500L, 500000L, 1625000L),
    ("Person", 5, 4, 5000000L, 500000L, 3331384L),
    ("Shopee", 20, 1, 32563L, 10962L, 54488L),
  )

  /** Table IV — (method, dataset) → (F1, pair-F1) as printed strings. */
  val tableIV: Map[(String, String), (String, String)] = Map(
    ("MultiEM", "Geo") -> ("64.7", "89.5"),
    ("MultiEM", "Music-20") -> ("86.8", "94.2"),
    ("MultiEM", "Music-200") -> ("78.0", "89.9"),
    ("MultiEM", "Music-2000") -> ("62.8", "81.3"),
    ("MultiEM", "Person") -> ("36.5", "73.6"),
    ("MultiEM", "Shopee") -> ("26.2", "43.5"),
    ("PromptEM (pw)", "Geo") -> ("17.6", "55.2"),
    ("PromptEM (pw)", "Music-20") -> ("53.9", "70.9"),
    ("Ditto (pw)", "Geo") -> ("n/r", "30.4"),
    ("AutoFJ (pw)", "Geo") -> ("n/r", "89.4"),
    ("AutoFJ (pw)", "Shopee") -> ("n/r", "45.0"),
    ("PromptEM (c)", "Geo") -> ("36.5", "n/r"),
    ("Ditto (c)", "Music-20") -> ("63.3", "76.8"),
    ("ALMSER-GB", "Music-20") -> ("63.5", "87.0"),
    ("ALMSER-GB", "Shopee") -> ("11.7", "36.4"),
    ("MSCD-HAC", "Geo") -> ("n/r", "90.9"),
  )

  /** Table V — running time strings per (method, dataset). */
  val tableV: Map[(String, String), String] = Map(
    ("PromptEM (pw)", "Geo") -> "12.7m", ("PromptEM (pw)", "Music-20") -> "50.5m",
    ("PromptEM (pw)", "Music-200") -> "38.4h", ("PromptEM (pw)", "Shopee") -> "3.0h",
    ("Ditto (pw)", "Geo") -> "3.5m", ("Ditto (pw)", "Music-20") -> "31.4m",
    ("Ditto (pw)", "Music-200") -> "14.4h", ("Ditto (pw)", "Shopee") -> "1.6h",
    ("AutoFJ (pw)", "Geo") -> "8.9m", ("AutoFJ (pw)", "Music-20") -> "3.8h",
    ("AutoFJ (pw)", "Shopee") -> "3.1h",
    ("PromptEM (c)", "Geo") -> "12.1m", ("PromptEM (c)", "Music-20") -> "49.8m",
    ("PromptEM (c)", "Music-200") -> "39.4h", ("PromptEM (c)", "Shopee") -> "2.6h",
    ("Ditto (c)", "Geo") -> "3.4m", ("Ditto (c)", "Music-20") -> "31.2m",
    ("Ditto (c)", "Music-200") -> "14.5h", ("Ditto (c)", "Shopee") -> "1.5h",
    ("AutoFJ (c)", "Geo") -> "9.9m", ("AutoFJ (c)", "Music-20") -> "1.4h",
    ("AutoFJ (c)", "Shopee") -> "1.2h",
    ("ALMSER-GB", "Geo") -> "5.1m", ("ALMSER-GB", "Music-20") -> "21.0m",
    ("ALMSER-GB", "Shopee") -> "26.8m",
    ("MSCD-HAC", "Geo") -> "1.5h",
    ("MultiEM", "Geo") -> "6.1s", ("MultiEM", "Music-20") -> "34.6s",
    ("MultiEM", "Music-200") -> "6.3m", ("MultiEM", "Music-2000") -> "1.3h",
    ("MultiEM", "Person") -> "1.8h", ("MultiEM", "Shopee") -> "42.9s",
  )

  /** Table VI — memory usage strings (mostly unreadable in our copy; the
    * legible Shopee column plus the paper's qualitative claims).
    */
  val tableVI: Map[(String, String), String] = Map(
    ("PromptEM (pw)", "Shopee") -> "9.2G", ("Ditto (pw)", "Shopee") -> "8.6G",
    ("AutoFJ (pw)", "Shopee") -> "3.0G", ("PromptEM (c)", "Shopee") -> "9.5G",
    ("Ditto (c)", "Shopee") -> "8.5G", ("AutoFJ (c)", "Shopee") -> "3.0G",
    ("ALMSER-GB", "Shopee") -> "9.9G", ("MSCD-HAC", "Shopee") -> "\\",
    ("MultiEM", "Shopee") -> "7.5G",
  )

  /** Table VII — attributes selected by EER per dataset. */
  val tableVII: Map[String, (String, String)] = Map(
    "Geo" -> ("name, longitude, latitude", "name"),
    "Music-20" -> ("id, number, title, length, artist, album, year, language", "title, artist, album"),
    "Music-200" -> ("id, number, title, length, artist, album, year, language", "title, artist, album"),
    "Music-2000" -> ("id, number, title, length, artist, album, year, language", "title, artist, album"),
    "Person" -> ("givenname, surname, suburb, postcode", "givenname, surname, suburb, postcode"),
    "Shopee" -> ("title", "title"),
  )
}
