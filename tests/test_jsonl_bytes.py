"""Output bytes of JSON-lines reports on timestamped logs.

Each command runs on a small JSON-lines log and its whole stdout and
stderr are compared with literal text. STAMPED takes every period from a
timestamp: its sessions cross UTC days under the offsets Z, z, +05:30 and
-05:00, and it holds one bad line of each kind a row is rejected for.
MIXED gives some rows an explicit period and others a timestamp, so one
session's counts from both land on one period and add up.
"""

from __future__ import annotations

import pytest

from adux.cli import main

STAMPED = r'''{"session_id": "u1", "category": "chat", "timestamp": "2024-03-01T23:30:00Z", "rating": 4, "task_completed": true}
{"session_id": "u1", "category": "chat", "timestamp": "2024-03-01T21:10:00-05:00", "rating": 2, "task_completed": false}
{"session_id": "u1", "category": "chat", "timestamp": "2024-03-02T05:40:00+05:30", "rating": 5}
{"session_id": "u2", "category": "chat", "timestamp": "2024-03-01T10:00:00.250z", "rating": 3, "task_completed": true}
{"session_id": "b1", "category": "chat", "rating": 3

{"session_id": "u2", "category": "chat", "timestamp": "2024-03-01T12:00:00z", "rating": 3}
["b2", "chat", 3]
{"session_id": "u3", "category": "chat", "timestamp": "2024-03-03T01:00:00+05:30", "rating": 1}
{"category": "chat", "timestamp": "2024-03-01T10:00:00Z", "rating": 3}
{"session_id": "u3", "category": "chat", "timestamp": "2024-03-02T22:00:00-05:00", "rating": 5}
{"session_id": "b4", "timestamp": "2024-03-01T10:00:00Z", "rating": 3}
{"session_id": "v1", "category": "code", "timestamp": "2024-03-01T08:00:00Z", "rating": 5, "task_completed": true}
{"session_id": "b5", "category": "\ud800", "timestamp": "2024-03-01T10:00:00Z", "rating": 3}
{"session_id": "v1", "category": "code", "timestamp": "2024-03-01T08:05:00Z", "rating": 4, "task_completed": true}
{"session_id": "b6", "category": "chat", "timestamp": "2024-03-01T10:00:00Z"}
{"session_id": "v1", "category": "code", "timestamp": "2024-03-01T08:10:00Z", "rating": 4}
{"session_id": "b7", "category": "chat", "rating": 3}
{"session_id": "v2", "category": "code", "timestamp": "2024-03-02T23:59:59-05:00", "rating": 2, "task_completed": false}
{"session_id": "b8", "category": "chat", "period": "x", "rating": 3}
{"session_id": "v2", "category": "code", "timestamp": "2024-03-03T00:30:00+05:30", "rating": 3}
{"session_id": "b9", "category": "chat", "timestamp": "2024-03-01T10:00:00Z", "rating": "x"}
{"session_id": "v3", "category": "code", "timestamp": "2024-03-04T12:00:00z", "rating": 1}
{"session_id": "b10", "category": "chat", "timestamp": "2024-03-01T10:00:00Z", "rating": 3, "task_completed": "maybe"}
{"session_id": "v3", "category": "code", "timestamp": "2024-03-04T13:00:00Z", "rating": 2}
{"session_id": "b11", "category": "chat", "timestamp": "2024-13-01T10:00:00Z", "rating": 3}
{"session_id": "u4", "category": "chat", "timestamp": "2024-03-04T04:00:00+05:30", "rating": 2}
{"session_id": "b12", "category": "chat", "period": -1, "rating": 3}
{"session_id": "u4", "category": "chat", "timestamp": "2024-03-03T20:00:00-05:00", "rating": 2}
{"session_id": "b13", "category": "chat", "timestamp": "2024-03-01T10:00:00Z", "rating": 9}
{"session_id": "u5", "category": "chat", "timestamp": "2024-03-05T18:45:00-05:00", "rating": 4, "task_completed": true}
{"session_id": "u5", "category": "chat", "timestamp": "2024-03-05T09:15:00Z", "rating": 5}
'''

MIXED = r'''{"session_id": "m1", "category": "chat", "period": 0, "rating": 4, "task_completed": true}
{"session_id": "m1", "category": "chat", "timestamp": "2024-03-01T23:30:00-05:00", "rating": 2}
{"session_id": "m1", "category": "chat", "timestamp": "2024-02-29T12:00:00Z", "rating": 5}
{"session_id": "m2", "category": "chat", "period": 1, "rating": 3, "task_completed": false}
{"session_id": "m2", "category": "chat", "timestamp": "2024-03-02T10:00:00+05:30", "rating": 3}
{"session_id": "m2", "category": "chat", "period": 1, "rating": 1}
{"session_id": "m3", "category": "code", "timestamp": "2024-03-03T00:10:00z", "rating": 5}
{"session_id": "m3", "category": "code", "period": 2, "rating": 4}
{"session_id": "m4", "category": "code", "period": 0, "rating": 2, "task_completed": true}
{"session_id": "b1", "category": "code", "period": 0, "rating": 0}
{"session_id": "m4", "category": "code", "timestamp": "2024-03-01T01:00:00+05:30", "rating": 1}
'''

# The rejections each log's commands print, in row order.
SKIPPED = {
    "STAMPED": r'''adux: skipped row 5: invalid JSON: Expecting ',' delimiter
adux: skipped row 8: JSON line is not an object
adux: skipped row 10: missing session_id
adux: skipped row 12: missing category
adux: skipped row 14: category '\ud800' is not UTF-8 text
adux: skipped row 16: missing rating
adux: skipped row 18: missing period
adux: skipped row 20: period value 'x' is not an integer
adux: skipped row 22: rating value 'x' is not an integer
adux: skipped row 24: task_completed value 'maybe' is not true/false/empty
adux: skipped row 26: invalid RFC 3339 timestamp '2024-13-01T10:00:00Z'
adux: skipped row 28: period must be >= 0, got -1
adux: skipped row 30: rating code 9 not in response space (1, 2, 3, 4, 5)
''',
    "MIXED": r'''adux: skipped row 10: rating code 0 not in response space (1, 2, 3, 4, 5)
''',
}

DIGEST = {
    "pooled": "adux: config digest 54fa2b16c8d2\n",
    "mean-of-sessions": "adux: config digest c7bb5e490563\n",
}

READ = ["--format", "jsonl", "--skip-invalid"]
MEAN = ["--aggregation", "mean-of-sessions"]

# name: (arguments, stdout); "STAMPED" and "MIXED" stand for the log files.
CASES = {
    "stamped-report-json-mean-of-sessions": (
        ["report", "--input", "STAMPED", *READ, *MEAN, "--no-meta"],
        r'''{
  "scale": {
    "levels": [
      {
        "code": 1,
        "label": "1"
      },
      {
        "code": 2,
        "label": "2"
      },
      {
        "code": 3,
        "label": "3"
      },
      {
        "code": 4,
        "label": "4"
      },
      {
        "code": 5,
        "label": "5"
      }
    ]
  },
  "categories": [
    {
      "name": "chat",
      "iei": {
        "bits": 0.7169925,
        "normalized": 0.308791862,
        "n": 11
      },
      "tdc": {
        "beta0": 2.86666667,
        "beta1": 0.166666667,
        "stderr": 0.328858857,
        "ci95": [
          -0.879908989,
          1.21324232
        ],
        "r2": 0.0788643533,
        "n_points": 5
      },
      "bucs": {
        "posterior": {
          "alpha": 4.0,
          "beta": 2.0
        },
        "interval": {
          "lower": 0.329850442,
          "upper": 0.973969215,
          "mass": 0.95,
          "kind": "hdi",
          "unique": true
        },
        "mean": 0.666666667
      }
    },
    {
      "name": "code",
      "iei": {
        "bits": 0.972765278,
        "normalized": 0.418947202,
        "n": 7
      },
      "tdc": {
        "unavailable": "insufficient-periods"
      },
      "bucs": {
        "posterior": {
          "alpha": 3.0,
          "beta": 2.0
        },
        "interval": {
          "lower": 0.227693312,
          "upper": 0.956209019,
          "mass": 0.95,
          "kind": "hdi",
          "unique": true
        },
        "mean": 0.6
      }
    }
  ]
}
''',
    ),
    "stamped-report-csv-mean-of-sessions": (
        ["report", "--input", "STAMPED", *READ, *MEAN, "--no-meta", "--report-format", "csv"],
        r'''category,metric,available,reason,bits,normalized,n,beta0,beta1,stderr,ci95_lower,ci95_upper,r2,n_points,alpha,beta,interval_lower,interval_upper,interval_mass,interval_kind,interval_unique,mean
chat,iei,true,,0.7169925,0.308791862,11,,,,,,,,,,,,,,,
chat,tdc,true,,,,,2.86666667,0.166666667,0.328858857,-0.879908989,1.21324232,0.0788643533,5,,,,,,,,
chat,bucs,true,,,,,,,,,,,,4.0,2.0,0.329850442,0.973969215,0.95,hdi,true,0.666666667
code,iei,true,,0.972765278,0.418947202,7,,,,,,,,,,,,,,,
code,tdc,false,insufficient-periods,,,,,,,,,,,,,,,,,,
code,bucs,true,,,,,,,,,,,,3.0,2.0,0.227693312,0.956209019,0.95,hdi,true,0.6
''',
    ),
    "stamped-report-json-pooled": (
        ["report", "--input", "STAMPED", *READ, "--no-meta"],
        r'''{
  "scale": {
    "levels": [
      {
        "code": 1,
        "label": "1"
      },
      {
        "code": 2,
        "label": "2"
      },
      {
        "code": 3,
        "label": "3"
      },
      {
        "code": 4,
        "label": "4"
      },
      {
        "code": 5,
        "label": "5"
      }
    ]
  },
  "categories": [
    {
      "name": "chat",
      "iei": {
        "bits": 2.23127025,
        "normalized": 0.960955793,
        "n": 11
      },
      "tdc": {
        "beta0": 2.86666667,
        "beta1": 0.166666667,
        "stderr": 0.328858857,
        "ci95": [
          -0.879908989,
          1.21324232
        ],
        "r2": 0.0788643533,
        "n_points": 5
      },
      "bucs": {
        "posterior": {
          "alpha": 4.0,
          "beta": 2.0
        },
        "interval": {
          "lower": 0.329850442,
          "upper": 0.973969215,
          "mass": 0.95,
          "kind": "hdi",
          "unique": true
        },
        "mean": 0.666666667
      }
    },
    {
      "name": "code",
      "iei": {
        "bits": 2.23592635,
        "normalized": 0.962961065,
        "n": 7
      },
      "tdc": {
        "unavailable": "insufficient-periods"
      },
      "bucs": {
        "posterior": {
          "alpha": 3.0,
          "beta": 2.0
        },
        "interval": {
          "lower": 0.227693312,
          "upper": 0.956209019,
          "mass": 0.95,
          "kind": "hdi",
          "unique": true
        },
        "mean": 0.6
      }
    }
  ]
}
''',
    ),
    "stamped-report-csv-pooled": (
        ["report", "--input", "STAMPED", *READ, "--no-meta", "--report-format", "csv"],
        r'''category,metric,available,reason,bits,normalized,n,beta0,beta1,stderr,ci95_lower,ci95_upper,r2,n_points,alpha,beta,interval_lower,interval_upper,interval_mass,interval_kind,interval_unique,mean
chat,iei,true,,2.23127025,0.960955793,11,,,,,,,,,,,,,,,
chat,tdc,true,,,,,2.86666667,0.166666667,0.328858857,-0.879908989,1.21324232,0.0788643533,5,,,,,,,,
chat,bucs,true,,,,,,,,,,,,4.0,2.0,0.329850442,0.973969215,0.95,hdi,true,0.666666667
code,iei,true,,2.23592635,0.962961065,7,,,,,,,,,,,,,,,
code,tdc,false,insufficient-periods,,,,,,,,,,,,,,,,,,
code,bucs,true,,,,,,,,,,,,3.0,2.0,0.227693312,0.956209019,0.95,hdi,true,0.6
''',
    ),
    "stamped-iei-per-period-mean-of-sessions": (
        ["iei", "--input", "STAMPED", *READ, *MEAN, "--group-by", "category-period"],
        r'''{
  "groups": [
    {
      "category": "chat",
      "period": 0,
      "bits": 0.0,
      "normalized": 0.0,
      "n": 3
    },
    {
      "category": "chat",
      "period": 1,
      "bits": 0.5,
      "normalized": 0.215338279,
      "n": 3
    },
    {
      "category": "chat",
      "period": 2,
      "bits": 0.0,
      "normalized": 0.0,
      "n": 2
    },
    {
      "category": "chat",
      "period": 3,
      "bits": 0.0,
      "normalized": 0.0,
      "n": 1
    },
    {
      "category": "chat",
      "period": 4,
      "bits": 1.0,
      "normalized": 0.430676558,
      "n": 2
    },
    {
      "category": "code",
      "period": 0,
      "bits": 0.918295834,
      "normalized": 0.395488489,
      "n": 3
    },
    {
      "category": "code",
      "period": 1,
      "bits": 0.0,
      "normalized": 0.0,
      "n": 1
    },
    {
      "category": "code",
      "period": 2,
      "bits": 0.0,
      "normalized": 0.0,
      "n": 1
    },
    {
      "category": "code",
      "period": 3,
      "bits": 1.0,
      "normalized": 0.430676558,
      "n": 2
    }
  ],
  "rejected": 13
}
''',
    ),
    "mixed-report-json-mean-of-sessions": (
        ["report", "--input", "MIXED", *READ, *MEAN, "--no-meta"],
        r'''{
  "scale": {
    "levels": [
      {
        "code": 1,
        "label": "1"
      },
      {
        "code": 2,
        "label": "2"
      },
      {
        "code": 3,
        "label": "3"
      },
      {
        "code": 4,
        "label": "4"
      },
      {
        "code": 5,
        "label": "5"
      }
    ]
  },
  "categories": [
    {
      "name": "chat",
      "iei": {
        "bits": 1.25162917,
        "normalized": 0.539047342,
        "n": 6
      },
      "tdc": {
        "unavailable": "insufficient-periods"
      },
      "bucs": {
        "posterior": {
          "alpha": 2.0,
          "beta": 2.0
        },
        "interval": {
          "lower": 0.0942993241,
          "upper": 0.905700676,
          "mass": 0.95,
          "kind": "hdi",
          "unique": true
        },
        "mean": 0.5
      }
    },
    {
      "name": "code",
      "iei": {
        "bits": 1.0,
        "normalized": 0.430676558,
        "n": 4
      },
      "tdc": {
        "unavailable": "insufficient-periods"
      },
      "bucs": {
        "posterior": {
          "alpha": 2.0,
          "beta": 1.0
        },
        "interval": {
          "lower": 0.223606798,
          "upper": 1.0,
          "mass": 0.95,
          "kind": "one-sided-upper",
          "unique": true
        },
        "mean": 0.666666667
      }
    }
  ]
}
''',
    ),
    "mixed-report-csv-mean-of-sessions": (
        ["report", "--input", "MIXED", *READ, *MEAN, "--no-meta", "--report-format", "csv"],
        r'''category,metric,available,reason,bits,normalized,n,beta0,beta1,stderr,ci95_lower,ci95_upper,r2,n_points,alpha,beta,interval_lower,interval_upper,interval_mass,interval_kind,interval_unique,mean
chat,iei,true,,1.25162917,0.539047342,6,,,,,,,,,,,,,,,
chat,tdc,false,insufficient-periods,,,,,,,,,,,,,,,,,,
chat,bucs,true,,,,,,,,,,,,2.0,2.0,0.0942993241,0.905700676,0.95,hdi,true,0.5
code,iei,true,,1.0,0.430676558,4,,,,,,,,,,,,,,,
code,tdc,false,insufficient-periods,,,,,,,,,,,,,,,,,,
code,bucs,true,,,,,,,,,,,,2.0,1.0,0.223606798,1.0,0.95,one-sided-upper,true,0.666666667
''',
    ),
    "mixed-report-csv-pooled": (
        ["report", "--input", "MIXED", *READ, "--no-meta", "--report-format", "csv"],
        r'''category,metric,available,reason,bits,normalized,n,beta0,beta1,stderr,ci95_lower,ci95_upper,r2,n_points,alpha,beta,interval_lower,interval_upper,interval_mass,interval_kind,interval_unique,mean
chat,iei,true,,2.25162917,0.9697239,6,,,,,,,,,,,,,,,
chat,tdc,false,insufficient-periods,,,,,,,,,,,,,,,,,,
chat,bucs,true,,,,,,,,,,,,2.0,2.0,0.0942993241,0.905700676,0.95,hdi,true,0.5
code,iei,true,,2.0,0.861353116,4,,,,,,,,,,,,,,,
code,tdc,false,insufficient-periods,,,,,,,,,,,,,,,,,,
code,bucs,true,,,,,,,,,,,,2.0,1.0,0.223606798,1.0,0.95,one-sided-upper,true,0.666666667
''',
    ),
    "mixed-iei-per-period-mean-of-sessions": (
        ["iei", "--input", "MIXED", *READ, *MEAN, "--group-by", "category-period"],
        r'''{
  "groups": [
    {
      "category": "chat",
      "period": 0,
      "bits": 1.0,
      "normalized": 0.430676558,
      "n": 2
    },
    {
      "category": "chat",
      "period": 1,
      "bits": 1.0,
      "normalized": 0.430676558,
      "n": 2
    },
    {
      "category": "chat",
      "period": 2,
      "bits": 0.0,
      "normalized": 0.0,
      "n": 2
    },
    {
      "category": "code",
      "period": 0,
      "bits": 1.0,
      "normalized": 0.430676558,
      "n": 2
    },
    {
      "category": "code",
      "period": 2,
      "bits": 0.0,
      "normalized": 0.0,
      "n": 1
    },
    {
      "category": "code",
      "period": 3,
      "bits": 0.0,
      "normalized": 0.0,
      "n": 1
    }
  ],
  "rejected": 1
}
''',
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_output_bytes(name, tmp_path, capsys):
    argv, expected = CASES[name]
    paths = {}
    for log, text in (("STAMPED", STAMPED), ("MIXED", MIXED)):
        paths[log] = tmp_path / f"{log.lower()}.jsonl"
        paths[log].write_text(text, encoding="utf-8")
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    err = SKIPPED[argv[2]]
    if argv[0] == "report":
        err += DIGEST["mean-of-sessions" if "mean-of-sessions" in argv else "pooled"]
    assert captured.err == err
